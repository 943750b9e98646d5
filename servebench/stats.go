package main

import (
	"math"
	"sort"
)

// Summary describes one latency sample: its size, mean, median and 99th
// percentile, plus how many observations lie beyond that percentile. A
// percentile means something only when at least ten observations lie
// beyond it, so every printed percentile carries its sample count.
type Summary struct {
	N        int
	Mean     float64
	P50      float64
	P99      float64
	Beyond99 int
}

// Summarize sorts a copy of xs and extracts its Summary. An empty sample
// yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	p99 := Quantile(s, 0.99)
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > p99 })
	return Summary{
		N:        len(s),
		Mean:     sum / float64(len(s)),
		P50:      Quantile(s, 0.50),
		P99:      p99,
		Beyond99: beyond,
	}
}

// Quantile is the nearest-rank q-quantile of an ascending sample: the
// smallest observation with at least a q share of the sample at or
// below it. An empty sample yields 0.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// windowSize is the smallest sample whose 99th percentile has ten
// observations beyond it.
const windowSize = 1000

// Windowed splits a time-ordered sample into consecutive windows of at
// least windowSize observations (one window when the sample is
// smaller), takes each window's median and 99th percentile, and returns
// the medians of those across windows with the window count. A burst of
// noise on the machine then moves one window, not the figure.
func Windowed(xs []float64) (p50, p99 float64, windows int) {
	windows = len(xs) / windowSize
	if windows < 1 {
		windows = 1
	}
	var p50s, p99s []float64
	for w := 0; w < windows; w++ {
		lo, hi := w*len(xs)/windows, (w+1)*len(xs)/windows
		s := Summarize(xs[lo:hi])
		p50s, p99s = append(p50s, s.P50), append(p99s, s.P99)
	}
	return Median(p50s), Median(p99s), windows
}

// Median is the nearest-rank median of an unsorted sample.
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Quantile(s, 0.5)
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
