// Command benchdiff compares two BENCH_*.json trajectory files (the
// crbench -bench -benchjson format) and fails when any benchmark
// present in both regressed beyond the allowed percentage in ns/op —
// the CI regression gate over the per-PR benchmark records.
//
// Usage:
//
//	benchdiff [-max-regress 25] old.json new.json
//
// Benchmarks appearing in only one file are reported but never fail
// the gate: workloads are allowed to be added and retired across PRs.
// When the new file records plan-cache counters, a hit rate at or
// below 0.9 also fails — repeated parameterized workloads must plan
// once, not per request.
//
// Besides ns/op, the gate also watches allocs/op: unlike wall time it
// is deterministic, so a tighter default threshold applies, with a
// small absolute floor so a 2→3 alloc change on a lean benchmark does
// not read as a 50%% regression.
package main

import (
	"flag"
	"fmt"
	"os"

	"courserank/internal/benchfmt"
)

func main() {
	maxRegress := flag.Float64("max-regress", 25, "maximum allowed ns/op regression, percent")
	maxAllocRegress := flag.Float64("max-alloc-regress", 15, "maximum allowed allocs/op regression, percent")
	allocFloor := flag.Int64("alloc-floor", 8, "ignore allocs/op growth at or below this many allocations")
	minHitRate := flag.Float64("min-hit-rate", 0.9, "minimum plan-cache hit rate when the new file records one")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-max-regress pct] old.json new.json")
		os.Exit(2)
	}
	old, err := benchfmt.Load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := benchfmt.Load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	oldBy := make(map[string]benchfmt.Result, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldBy[b.Name] = b
	}
	failed := false
	seen := make(map[string]bool)
	fmt.Printf("%-26s %14s %14s %9s %10s %10s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	for _, b := range cur.Benchmarks {
		seen[b.Name] = true
		o, ok := oldBy[b.Name]
		if !ok {
			fmt.Printf("%-26s %14s %14.0f %9s %10s %10d %8s\n", b.Name, "-", b.NsPerOp, "new", "-", b.AllocsPerOp, "")
			continue
		}
		delta := (b.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		mark := ""
		if delta > *maxRegress {
			mark = "  REGRESSION"
			failed = true
		}
		// Alloc counts are exact, so any growth is a code change, not
		// noise — but tiny benchmarks earn an absolute floor.
		var allocDelta float64
		grew := b.AllocsPerOp - o.AllocsPerOp
		if o.AllocsPerOp > 0 {
			allocDelta = float64(grew) / float64(o.AllocsPerOp) * 100
		}
		if grew > *allocFloor && (o.AllocsPerOp == 0 || allocDelta > *maxAllocRegress) {
			mark = "  ALLOC REGRESSION"
			failed = true
		}
		fmt.Printf("%-26s %14.0f %14.0f %+8.1f%% %10d %10d %+7.1f%%%s\n", b.Name, o.NsPerOp, b.NsPerOp, delta, o.AllocsPerOp, b.AllocsPerOp, allocDelta, mark)
	}
	for _, o := range old.Benchmarks {
		if !seen[o.Name] {
			fmt.Printf("%-26s %14.0f %14s %9s\n", o.Name, o.NsPerOp, "-", "removed")
		}
	}
	if pc := cur.PlanCache; pc != nil {
		mark := ""
		if pc.HitRate <= *minHitRate {
			mark = "  TOO LOW"
			failed = true
		}
		fmt.Printf("plan-cache hit rate %.4f (%d hits / %d misses / %d invalidations)%s\n",
			pc.HitRate, pc.Hits, pc.Misses, pc.Invalidations, mark)
	}
	// The latency section is informational: percentiles ride wall-clock
	// noise too hard to gate, but printing them puts the observed
	// distribution next to the ns/op means it must explain.
	for _, l := range cur.Latency {
		fmt.Printf("latency %-48q %8d ops  p50 %6dns  p95 %6dns  p99 %6dns  max %6dns\n",
			l.SQL, l.Count, l.P50Ns, l.P95Ns, l.P99Ns, l.MaxNs)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: regression beyond %.0f%% ns/op or %.0f%% allocs/op (or hit rate below %.2f) between %s and %s\n",
			*maxRegress, *maxAllocRegress, *minHitRate, flag.Arg(0), flag.Arg(1))
		os.Exit(1)
	}
}
