// Command crbench regenerates every table and figure of the paper
// against a synthetic deployment and prints them in the paper's shape.
//
// Usage:
//
//	crbench [-scale tiny|small|paper] [-exp all|table1|figure1|figure2|
//	        figure3|figure4|figure5a|figure5b|stats|grades|evolution|
//	        incentives|a1|a2|a3]
//	crbench -bench [-scale ...] [-benchjson out.json] [-benchfilter re]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -bench, crbench instead times the tracked hot-path workloads
// (FlexRecs workflows, hardcoded recommenders, search, cloud) with
// testing.Benchmark and emits machine-readable per-benchmark JSON
// (ns/op, allocs/op) to -benchjson (default stdout), the format the
// BENCH_*.json trajectory files record per PR.
//
// # Profiling a regression
//
// When benchdiff flags a ns/op or allocs/op shift, attribute it instead
// of guessing: -cpuprofile records a CPU profile across the benchmark
// run, -memprofile writes allocation profile at exit (after a final GC).
// Narrow a -bench run to the flagged scenario with -benchfilter (a
// regexp over scenario names; the view-speedup gate is skipped for
// filtered runs), then inspect with
//
//	crbench -bench -scale small -benchfilter MergeJoin -cpuprofile cpu.pprof
//	go tool pprof -peek 'drainCursor' cpu.pprof  # callers + callees of one frame
//	go tool pprof -top cpu.pprof            # where the time went
//	go tool pprof -top -sample_index=alloc_objects mem.pprof
//	go tool pprof -top -sample_index=alloc_space mem.pprof
//
// and diff against a profile from the baseline commit before concluding
// anything — bench machines are noisy, allocation counts are not.
//
// Paper-scale generation builds the full 18,605-course / 134,000-comment
// deployment and takes tens of seconds; small (a tenth) is the default.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"courserank/internal/datagen"
	"courserank/internal/experiments"
)

func main() {
	scale := flag.String("scale", "small", "deployment scale: tiny, small, paper")
	exp := flag.String("exp", "all", "experiment to run")
	bench := flag.Bool("bench", false, "run the tracked micro-benchmarks and emit JSON instead of experiments")
	benchJSON := flag.String("benchjson", "", "write benchmark JSON to this file (default stdout)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	benchFilter := flag.String("benchfilter", "", "with -bench, run only scenarios whose name matches this regexp")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows true retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	var cfg datagen.Config
	switch *scale {
	case "tiny":
		cfg = datagen.Tiny()
	case "small":
		cfg = datagen.Small()
	case "paper":
		cfg = datagen.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	// In -bench mode stdout may carry the JSON report, so progress
	// chatter goes to stderr to keep the stream machine-readable.
	progress := os.Stdout
	if *bench {
		progress = os.Stderr
	}
	fmt.Fprintf(progress, "generating %s-scale deployment (seed %d)...\n", *scale, cfg.Seed)
	t0 := time.Now()
	r, err := experiments.NewRunner(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "generate:", err)
		os.Exit(1)
	}
	fmt.Fprintf(progress, "generated in %v\n\n", time.Since(t0).Round(time.Millisecond))

	if *bench {
		out := os.Stdout
		if *benchJSON != "" {
			f, err := os.Create(*benchJSON)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := runBenchmarks(r, *scale, *benchFilter, out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	type experiment struct {
		name string
		run  func() (string, error)
	}
	all := []experiment{
		{"stats", func() (string, error) { return r.ScaleStats(), nil }},
		{"table1", func() (string, error) { return r.Table1(), nil }},
		{"figure1", func() (string, error) { return r.Figure1(), nil }},
		{"figure2", func() (string, error) { return r.Figure2(), nil }},
		{"figure3", func() (string, error) { s, _, err := r.Figure3(); return s, err }},
		{"figure4", r.Figure4},
		{"figure5a", r.Figure5a},
		{"figure5b", r.Figure5b},
		{"grades", func() (string, error) { return r.GradeDivergence(), nil }},
		{"evolution", func() (string, error) { return r.Evolution(), nil }},
		{"incentives", r.Incentives},
		{"a1", r.AblationFlexVsHandCoded},
		{"a2", r.AblationCloudCost},
		{"a3", r.AblationEntitySearch},
	}

	ran := 0
	for _, e := range all {
		if *exp != "all" && *exp != e.name {
			continue
		}
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
