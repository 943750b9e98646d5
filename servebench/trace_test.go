package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	spans := []Span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},       // overlaps a: together they cover 10..60
		{Name: "a.inner", Parent: 1, Start: 15, End: 25}, // counts against a, not the request
		{Name: "c", Parent: 0, Start: 90, End: 120},      // reaches past its parent: only 90..100 counts
		{Name: "other", Parent: -1, Start: 0, End: 5},
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 10, 30, 5}
	if got := SelfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("SelfTimes = %v, want %v", got, want)
	}
}

func TestSpanStatsAggregateByName(t *testing.T) {
	spans := []Span{
		{Name: "request.course", Parent: -1, Start: 0, End: 4e6},
		{Name: "render.coursepage", Parent: 0, Start: 0, End: 3e6},
		{Name: "request.course", Parent: -1, Start: 0, End: 2e6},
		{Name: "render.coursepage", Parent: 2, Start: 0, End: 1e6},
	}
	stats := SpanStats(spans)
	if len(stats) != 2 || stats[0].Name != "render.coursepage" || stats[1].Name != "request.course" {
		t.Fatalf("SpanStats names = %+v", stats)
	}
	req := stats[1]
	if req.Dur.N != 2 || req.Dur.P50 != 2 || req.Self.P50 != 1 {
		t.Fatalf("request.course stats = %+v", req)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := NewTracer()
	if id := tr.Begin(1, -1, "x"); id != -1 {
		t.Fatalf("Begin with tracing off returned %d", id)
	}
	tr.End(-1)
	tr.on = true
	root := tr.Begin(1, -1, "request")
	child := tr.Begin(1, root, "call")
	tr.End(child)
	tr.End(root)
	if len(tr.Spans) != 2 || tr.Spans[1].Parent != root || tr.Spans[0].End < tr.Spans[1].End {
		t.Fatalf("spans = %+v", tr.Spans)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := WriteSpans(path, tr.Spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], `"name":"call","req":1,"id":1,"parent":0`) {
		t.Fatalf("span file = %q", data)
	}
}
