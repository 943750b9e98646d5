package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// The JSON line's metric names must be the ones BENCHMARK.json declares,
// which sits at the root of the repository.
func TestJSONLineMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key  string
		list []struct{ Name string }
		code map[string]bool
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		declared := map[string]bool{}
		for _, m := range c.list {
			declared[m.Name] = true
		}
		if !reflect.DeepEqual(declared, c.code) {
			t.Errorf("BENCHMARK.json %s names %v, the benchmark prints %v", c.key, sortedKeys(declared), sortedKeys(c.code))
		}
	}
}

// A run that measured everything prints every metric its mode names; a
// missing one is an error rather than a short JSON line.
func TestPrintRefusesAMissingMetric(t *testing.T) {
	r := &result{correct: true, attempted: 1, line: names("a", "b")}
	r.add(metric{name: "a", value: 1, unit: "s"})
	r.add(metric{name: "c", value: 2, unit: "s"})
	if err := r.print(io.Discard); err == nil {
		t.Fatal("print accepted a line without metric b")
	}
	r.add(metric{name: "b", value: 3, unit: "s"})
	if err := r.print(io.Discard); err != nil {
		t.Fatal(err)
	}
	if len(r.final) != 2 || len(r.extra) != 1 || r.extra[0].name != "c" {
		t.Fatalf("final %v, extra %v", r.final, r.extra)
	}
}
