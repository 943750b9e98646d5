package benchfmt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestLoadRecordedTrajectories decodes every committed BENCH_*.json
// record, including older ones carrying sections Report no longer
// declares: benchdiff must keep reading the whole trajectory.
func TestLoadRecordedTrajectories(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json records found at the repository root")
	}
	declared := map[string]bool{}
	rt := reflect.TypeOf(Report{})
	for i := 0; i < rt.NumField(); i++ {
		declared[strings.Split(rt.Field(i).Tag.Get("json"), ",")[0]] = true
	}
	retired := 0
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for k := range raw {
			if !declared[k] {
				retired++
				break
			}
		}
		r, err := Load(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if len(r.Benchmarks) == 0 {
			t.Errorf("%s: decoded no benchmarks", p)
		}
	}
	if retired == 0 {
		t.Error("no record carries a retired section; the decode check covers nothing")
	}
}
