package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one replayed
// request share Req; Parent is the index of the span that made the
// call, or -1 for the request's root span. Start and End are
// nanoseconds since the tracer's epoch.
type Span struct {
	Name       string
	Req        int64
	Parent     int32
	Start, End int64
}

// Tracer keeps spans in memory until the run ends. With on false every
// call is a no-op, so a replay can run the same code with tracing off.
// A Tracer is used by one goroutine.
type Tracer struct {
	on    bool
	epoch time.Time
	Spans []Span
}

// NewTracer returns a tracer that records nothing until On is set.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its index, or -1 when tracing is off.
func (t *Tracer) Begin(req int64, parent int32, name string) int32 {
	if !t.on {
		return -1
	}
	t.Spans = append(t.Spans, Span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.epoch))})
	return int32(len(t.Spans) - 1)
}

// End closes the span Begin returned.
func (t *Tracer) End(id int32) {
	if id >= 0 {
		t.Spans[id].End = int64(time.Since(t.epoch))
	}
}

// SelfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover. Overlapping children count once,
// and a child reaching outside its parent counts only inside it.
func SelfTimes(spans []Span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		for k, x := range iv {
			switch {
			case k == 0:
				curLo, curHi = x[0], x[1]
			case x[0] <= curHi:
				curHi = max(curHi, x[1])
			default:
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// SpanStat is the per-name aggregate of a span set.
type SpanStat struct {
	Name string
	Dur  Summary // milliseconds
	Self Summary // milliseconds
}

// SpanStats aggregates durations and self times by span name, in name
// order.
func SpanStats(spans []Span) []SpanStat {
	self := SelfTimes(spans)
	dur := map[string][]float64{}
	own := map[string][]float64{}
	for i, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/1e6)
		own[s.Name] = append(own[s.Name], float64(self[i])/1e6)
	}
	out := make([]SpanStat, 0, len(dur))
	for _, name := range sortedKeys(dur) {
		out = append(out, SpanStat{Name: name, Dur: Summarize(dur[name]), Self: Summarize(own[name])})
	}
	return out
}

// WriteSpans writes spans as JSON lines: name, request id, span id,
// parent span id, and start and end in nanoseconds since the epoch.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range spans {
		fmt.Fprintf(w, "{\"name\":%q,\"req\":%d,\"id\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.Name, s.Req, i, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
