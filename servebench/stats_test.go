package main

import (
	"testing"
	"time"
)

func TestSummarizeReportsPercentilesWithCounts(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 1000 … 1, unsorted on purpose
	}
	s := Summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 || s.Beyond99 != 10 || s.Mean != 500.5 {
		t.Fatalf("Summarize(1..1000) = %+v", s)
	}
	if xs[0] != 1000 {
		t.Fatalf("Summarize reordered its input")
	}

	small := Summarize([]float64{3, 1, 2})
	if small.N != 3 || small.P50 != 2 || small.P99 != 3 || small.Beyond99 != 0 {
		t.Fatalf("Summarize(3 samples) = %+v", small)
	}
	if (Summarize(nil) != Summary{}) {
		t.Fatalf("empty sample should give the zero Summary")
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 10}, {0.26, 20}, {0.5, 20}, {0.75, 30}, {0.99, 40}, {1, 40},
	} {
		if got := Quantile(s, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Errorf("Quantile of an empty sample should be 0")
	}
	if Median([]float64{5, 1, 3}) != 3 {
		t.Errorf("Median(5,1,3) != 3")
	}
}

func TestWindowedTakesMediansOfWindows(t *testing.T) {
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 2000; i < 3000; i++ {
		xs[i] = 100 // one noisy window
	}
	p50, p99, n := Windowed(xs)
	if n != 3 || p50 != 1 || p99 != 1 {
		t.Fatalf("Windowed = %v, %v, %d windows; want 1, 1, 3", p50, p99, n)
	}
	p50, p99, n = Windowed([]float64{3, 1, 2})
	if n != 1 || p50 != 2 || p99 != 3 {
		t.Fatalf("Windowed(3 samples) = %v, %v, %d", p50, p99, n)
	}
}

func TestThroughputCountsSuccesses(t *testing.T) {
	outs := []outcome{
		{done: 100 * time.Millisecond}, {done: 900 * time.Millisecond},
		{done: 1500 * time.Millisecond}, {done: 1600 * time.Millisecond, err: errSkipped},
		{done: 2100 * time.Millisecond},
	}
	if got := throughputOf(outs, 2*time.Second); got != 2 {
		t.Fatalf("throughputOf = %v, want 4 successes / 2 s", got)
	}
}
