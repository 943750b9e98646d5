package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"courserank/internal/benchfmt"
	"courserank/internal/comments"
	"courserank/internal/core"
	"courserank/internal/experiments"
	"courserank/internal/matview"
	"courserank/internal/relation"
	"courserank/internal/wal"
)

// observedLatency carries the collector's per-statement percentiles
// out of the ObservedPointLookup scenario (whose collector is torn
// down when the scenario restores the bare site) into the report.
var observedLatency []benchfmt.Latency

// explainExpect is the plan-shape guard shared by scenarios that claim
// to measure one specific access path: the statement's Explain output
// must contain want, or the scenario is timing something other than
// what its name records and the trajectory entry would be a lie.
func explainExpect(b *testing.B, explain func() (string, error), want string) {
	b.Helper()
	out, err := explain()
	if err != nil {
		b.Fatalf("explain: %v", err)
	}
	if !strings.Contains(out, want) {
		b.Fatalf("scenario does not ride %q:\n%s", want, out)
	}
}

// durableBenchTable is the journaled table the durability scenarios
// write: an auto-increment key plus one payload column.
func durableBenchTable() *relation.Table {
	return relation.MustTable("Bench",
		relation.MustSchema(
			relation.NotNullCol("ID", relation.TypeInt),
			relation.NotNullCol("Val", relation.TypeString),
		), relation.WithPrimaryKey("ID"), relation.WithAutoIncrement("ID"))
}

// durableBench opens a fresh durable store in a temp dir with the bench
// table created; cleanup closes the store and removes the dir.
func durableBench(b *testing.B, opts relation.DurableOptions) *relation.DB {
	b.Helper()
	dir, err := os.MkdirTemp("", "crbench-durable-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	db, store, err := relation.OpenDurable(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	if _, err := db.Ensure(durableBenchTable()); err != nil {
		b.Fatal(err)
	}
	return db
}

// feedDep resolves the department whose feed the matview scenarios
// request: the one holding the planted intro-programming course, which
// datagen always rates.
func feedDep(r *experiments.Runner) string {
	c, ok := r.Site.Catalog.Course(r.Man.Planted["intro-programming"])
	if !ok {
		return "CS"
	}
	return c.DepID
}

// benchmarks defines the tracked workloads over a generated deployment.
// They mirror the hot paths of the repository's bench_test.go suite:
// the two Figure 5 FlexRecs workflows, the declarative-vs-hardcoded
// ablation pair, and the search/cloud interaction path.
func benchmarks(r *experiments.Runner) []struct {
	name string
	fn   func(b *testing.B)
} {
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"Figure5aRelatedCourses", func(b *testing.B) {
			tpl, _ := r.Site.Strategies.Get("related-courses")
			for i := 0; i < b.N; i++ {
				wf, err := tpl.Build(map[string]any{"title": "Introduction to Programming", "k": 10})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.Site.Flex.Run(wf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// Figure5bCollaborative is also the workflow side of the A1
		// declarative-vs-hardcoded ablation; A1Hardcoded below is its
		// counterpart, so the pair is recorded without running the
		// same workload twice.
		{"Figure5bCollaborative", func(b *testing.B) {
			tpl, _ := r.Site.Strategies.Get("cf-courses")
			for i := 0; i < b.N; i++ {
				wf, err := tpl.Build(map[string]any{"student": r.Man.SampleStudent, "k": 10, "neighbors": 20})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.Site.Flex.Run(wf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"A1Hardcoded", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if out := r.Site.Baseline.UserUserCF(r.Man.SampleStudent, 20, 10, false); out == nil {
					b.Fatal("no result")
				}
			}
		}},
		{"Figure3SearchAmerican", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.Site.SearchCourses("american"); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Figure3Cloud", func(b *testing.B) {
			res, err := r.Site.SearchCourses("american")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Site.CourseCloud(res, 30); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The prepared/one-shot pair measures what the plan cache took
		// off the per-request path: both run the same parameterized
		// point lookup, one through a held *Stmt (bind + execute only),
		// one through Query (cache lookup + bind + execute).
		{"PreparedPointLookup", func(b *testing.B) {
			st, err := r.Site.SQL.Prepare(`SELECT Title, DepID FROM Courses WHERE CourseID = ?`)
			if err != nil {
				b.Fatal(err)
			}
			id := r.Man.Planted["intro-programming"]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Query(id); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"OneShotPointLookup", func(b *testing.B) {
			id := r.Man.Planted["intro-programming"]
			for i := 0; i < b.N; i++ {
				if _, err := r.Site.SQL.Query(`SELECT Title, DepID FROM Courses WHERE CourseID = ?`, id); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// ObservedPointLookup is PreparedPointLookup with query-level
		// observability on: every op additionally pays one histogram
		// record and the slow-log floor check. The pair bounds what
		// observation costs (checkObservedOverhead below), and the
		// collector's measurements land in the report's latency section.
		// Observability flips off again afterwards so every other
		// scenario stays bare — the disabled path is what the tracked
		// trajectory gates PR over PR.
		{"ObservedPointLookup", func(b *testing.B) {
			r.Site.EnableObservability()
			defer r.Site.DisableObservability()
			st, err := r.Site.SQL.Prepare(`SELECT Title, DepID FROM Courses WHERE CourseID = ?`)
			if err != nil {
				b.Fatal(err)
			}
			id := r.Man.Planted["intro-programming"]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Query(id); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// testing.Benchmark re-invokes the scenario while calibrating
			// b.N; each invocation installs a fresh collector, so keep
			// only the final (full-length) run's measurements.
			observedLatency = observedLatency[:0]
			for _, q := range r.Site.Obs.Top(0, "total") {
				observedLatency = append(observedLatency, benchfmt.Latency{
					SQL: q.SQL, Route: q.Route, Count: q.Count,
					P50Ns: q.P50Ns, P95Ns: q.P95Ns, P99Ns: q.P99Ns, MaxNs: q.MaxNs,
				})
			}
		}},
		// RangeYearElidedSort exercises the ordered-index range path end
		// to end: the Year >= ? predicate rides the CourseYears ordered
		// index and the ORDER BY on the same key is elided.
		{"RangeYearElidedSort", func(b *testing.B) {
			st, err := r.Site.SQL.Prepare(`SELECT CourseID, Year FROM CourseYears WHERE Year >= ? ORDER BY Year`)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Query(int64(2008)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// RatedCoursesINLJ is the per-student history feed: a handful of
		// comments probing the whole catalog through an index nested-loop
		// join over the Courses primary key.
		{"RatedCoursesINLJ", func(b *testing.B) {
			tpl, _ := r.Site.Strategies.Get("rated-courses")
			for i := 0; i < b.N; i++ {
				wf, err := tpl.Build(map[string]any{"student": r.Man.SampleStudent, "k": 20})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.Site.Flex.Run(wf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// MergeJoinOrdered streams the first 200 rows of a join whose both
		// sides walk ordered Year indexes: no hash build, no
		// materialization — the merge cursor pulls both index walks in
		// lockstep and an early Close stops them.
		{"MergeJoinOrdered", func(b *testing.B) {
			st, err := r.Site.SQL.Prepare(`SELECT y.CourseID, o.OfferingID FROM CourseYears y JOIN Offerings o ON y.Year = o.Year`)
			if err != nil {
				b.Fatal(err)
			}
			explainExpect(b, st.Explain, "merge join")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := st.QueryRows()
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for rows.Next() && n < 200 {
					n++
				}
				rows.Close()
				if err := rows.Err(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// TopRatedDescElided is the "best first" feed: Rating >= ? plus
		// ORDER BY Rating DESC answered by one descending walk of the
		// Comments.Rating ordered index, sort elided.
		{"TopRatedDescElided", func(b *testing.B) {
			st, err := r.Site.SQL.Prepare(`SELECT SuID, CourseID, Rating FROM Comments WHERE Rating >= ? ORDER BY Rating DESC`)
			if err != nil {
				b.Fatal(err)
			}
			explainExpect(b, st.Explain, "order by Rating DESC elided")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Query(4.0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// YearBandJoin answers "courses offered within ±1 year of this
		// course's offerings" with per-left-row range probes of the
		// CourseYears.Year ordered index — a band join.
		{"YearBandJoin", func(b *testing.B) {
			st, err := r.Site.SQL.Prepare(`SELECT a.CourseID, b.CourseID, b.Year FROM CourseYears a JOIN CourseYears b ON b.Year BETWEEN a.Year - 1 AND a.Year + 1 WHERE a.CourseID = ?`)
			if err != nil {
				b.Fatal(err)
			}
			explainExpect(b, st.Explain, "probe=range(Year)")
			id := r.Man.Planted["intro-programming"]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Query(id); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// ColdViewBuild forces the top-rated feed's materialized view to
		// rebuild every iteration — the price of one full aggregation
		// pass, i.e. what EVERY feed request would pay without the
		// materialization layer.
		{"ColdViewBuild", func(b *testing.B) {
			v, ok := r.Site.Views.View(core.FeedViewName)
			if !ok {
				b.Fatal("feed view not registered")
			}
			dep := feedDep(r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Invalidate()
				if _, _, err := r.Site.TopRatedFeed(dep, 10); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// WarmViewServe is the same request against a warm view: an
		// atomic snapshot load. The guards prove it actually rides the
		// view — the view's hit counter must move and a materialized
		// workflow's Explain must show the matview serve.
		{"WarmViewServe", func(b *testing.B) {
			v, ok := r.Site.Views.View(core.FeedViewName)
			if !ok {
				b.Fatal("feed view not registered")
			}
			dep := feedDep(r)
			if _, _, err := r.Site.TopRatedFeed(dep, 10); err != nil {
				b.Fatal(err) // warm the snapshot
			}
			tpl, _ := r.Site.Strategies.Get("department-popular")
			wf, err := tpl.Build(map[string]any{"dep": dep, "k": 10})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.Site.Flex.Run(wf); err != nil {
				b.Fatal(err)
			}
			explainExpect(b, func() (string, error) { return r.Site.Flex.Explain(wf), nil }, "matview hit (age=")
			hits0 := v.Stats().Hits
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := r.Site.TopRatedFeed(dep, 10); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if hits := v.Stats().Hits; hits < hits0+uint64(b.N) {
				b.Fatalf("feed requests did not hit the view: hits %d → %d over %d ops", hits0, hits, b.N)
			}
		}},
		// StaleAsyncServe measures the async stale-bounded read path:
		// every iteration lands a rating (staling the view) and then
		// reads the feed, which must serve the previous snapshot
		// immediately — never block on the rebuild running behind it.
		{"StaleAsyncServe", func(b *testing.B) {
			v, ok := r.Site.Views.View(core.FeedViewName)
			if !ok {
				b.Fatal("feed view not registered")
			}
			dep := feedDep(r)
			course := r.Man.Planted["intro-programming"]
			if _, _, err := r.Site.TopRatedFeed(dep, 10); err != nil {
				b.Fatal(err)
			}
			// One comment added up front; the storm flips ITS rating in
			// place (an O(1) primary-key update), so every iteration is
			// DML on the view's Comments dependency without growing the
			// table — rebuild cost stays flat across b.N escalations.
			id, err := r.Site.Comments.Add(comments.Comment{
				SuID: r.Man.SampleStudent, CourseID: course,
				Year: 2008, Term: "Aut", Text: "bench", Rating: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			tbl := r.Site.DB.MustTable("Comments")
			ri := tbl.Schema().MustIndex("Rating")
			stale0 := v.Stats().StaleHits
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tbl.UpdateByKey([]relation.Value{id},
					func(row relation.Row) relation.Row {
						row[ri] = float64(1 + i%5)
						return row
					}); err != nil {
					b.Fatal(err)
				}
				if _, serve, err := r.Site.TopRatedFeed(dep, 10); err != nil {
					b.Fatal(err)
				} else if serve.Kind == matview.ServeBuilt {
					b.Fatal("stale read blocked on a rebuild inside the staleness bound")
				}
			}
			b.StopTimer()
			if stale := v.Stats().StaleHits; stale == stale0 {
				b.Fatalf("scenario never served stale: staleHits stayed %d", stale0)
			}
		}},
		// DurableInsertSync journals one row per op through the WAL and
		// fsyncs every commit — the worst-case single-writer durability
		// price, dominated by the per-commit fsync.
		{"DurableInsertSync", func(b *testing.B) {
			db := durableBench(b, relation.DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: -1})
			tbl := db.MustTable("Bench")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tbl.Insert(relation.Row{nil, "durable-payload"}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// DurableInsertGroupCommit drives the same fsync-per-commit log
		// with parallel committers: concurrent commits ride one
		// another's fsyncs (group commit), so the log issues far fewer
		// fsyncs than commits. The win over DurableInsertSync scales
		// with the real cost of fsync — dramatic on spinning/SSD media,
		// modest on memory-backed filesystems.
		{"DurableInsertGroupCommit", func(b *testing.B) {
			db := durableBench(b, relation.DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: -1})
			tbl := db.MustTable("Bench")
			b.SetParallelism(4)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := tbl.Insert(relation.Row{nil, "durable-payload"}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}},
		// RecoveryReplay reopens a store whose state lives entirely in a
		// 2000-record WAL (checkpointing disabled): the cost of crash
		// recovery — scan, CRC-check and re-apply every record.
		{"RecoveryReplay", func(b *testing.B) {
			dir, err := os.MkdirTemp("", "crbench-replay-*")
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { os.RemoveAll(dir) })
			opts := relation.DurableOptions{Sync: wal.SyncNone, CheckpointEvery: -1}
			db, store, err := relation.OpenDurable(dir, opts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.Ensure(durableBenchTable()); err != nil {
				b.Fatal(err)
			}
			tbl := db.MustTable("Bench")
			for i := 0; i < 2000; i++ {
				if _, err := tbl.Insert(relation.Row{nil, "replay-payload"}); err != nil {
					b.Fatal(err)
				}
			}
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rdb, rstore, err := relation.OpenDurable(dir, opts)
				if err != nil {
					b.Fatal(err)
				}
				if n := rdb.MustTable("Bench").Len(); n != 2000 {
					b.Fatalf("replay recovered %d rows, want 2000", n)
				}
				if err := rstore.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// WideJoinStreamFirst50 measures true streaming below the Rows
		// API: a comments×catalog join consumed 50 rows at a time — the
		// iterator pipeline stops scanning and probing once the reader
		// closes, where the materialized executor paid for every row.
		{"WideJoinStreamFirst50", func(b *testing.B) {
			st, err := r.Site.SQL.Prepare(`SELECT m.SuID, m.Rating, c.Title, c.DepID FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID`)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := st.QueryRows()
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for rows.Next() && n < 50 {
					n++
				}
				rows.Close()
				if err := rows.Err(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// ConcurrentWriters measures transaction commit throughput under
		// contention: parallel committers on one table, each op a full
		// begin → staged insert → first-committer-wins commit cycle.
		// Distinct auto-increment keys mean no conflicts — this times the
		// MVCC bookkeeping itself (snapshot allocation, staging, commit
		// stamping), not retry storms.
		{"ConcurrentWriters", func(b *testing.B) {
			db := relation.NewDB()
			tbl := db.MustCreate(relation.MustTable("TxBench",
				relation.MustSchema(
					relation.NotNullCol("ID", relation.TypeInt),
					relation.NotNullCol("Val", relation.TypeString),
				), relation.WithPrimaryKey("ID"), relation.WithAutoIncrement("ID")))
			b.SetParallelism(4)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					tx := db.Begin()
					if _, err := tx.Insert(tbl, relation.Row{nil, "tx-payload"}); err != nil {
						b.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}},
		// SnapshotReadUnderWriteStorm measures the readers-never-block
		// price: each op is a transactional scan of 1000 rows while
		// background writers churn updates on the same table. The scan
		// must always count exactly 1000 — its snapshot is immune to the
		// storm — and its latency shows what version resolution costs
		// while chains are live.
		{"SnapshotReadUnderWriteStorm", func(b *testing.B) {
			db := relation.NewDB()
			tbl := db.MustCreate(relation.MustTable("TxBench",
				relation.MustSchema(
					relation.NotNullCol("ID", relation.TypeInt),
					relation.NotNullCol("Val", relation.TypeString),
				), relation.WithPrimaryKey("ID"), relation.WithAutoIncrement("ID")))
			const rows = 1000
			for i := 0; i < rows; i++ {
				tbl.MustInsert(relation.Row{nil, "seed"})
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						id := int64(1 + (w*rows/2+i)%rows)
						_ = tbl.UpdateByKey([]relation.Value{id},
							func(r relation.Row) relation.Row { r[1] = "storm"; return r })
					}
				}(w)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := db.Begin()
				n := 0
				tx.Scan(tbl, func(relation.Row) bool { n++; return true })
				tx.Rollback()
				if n != rows {
					b.Fatalf("snapshot scan saw %d rows, want %d", n, rows)
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		}},
	}
}

// runBenchmarks executes the tracked workloads with testing.Benchmark
// and writes one JSON report, so BENCH_*.json trajectories can be
// recorded per PR without parsing `go test -bench` text output.
// A non-empty filter regexp narrows the run to matching scenarios —
// the usual companion to -cpuprofile when chasing one regression.
func runBenchmarks(r *experiments.Runner, scale, filter string, w io.Writer) error {
	var filterRE *regexp.Regexp
	if filter != "" {
		var err error
		if filterRE, err = regexp.Compile(filter); err != nil {
			return fmt.Errorf("benchfilter: %w", err)
		}
	}
	report := benchfmt.Report{Scale: scale, GoVersion: runtime.Version()}
	// Counters start clean so the recorded hit rate covers exactly the
	// benchmark window, not deployment generation.
	r.Site.SQL.ResetCacheStats()
	for _, bm := range benchmarks(r) {
		if filterRE != nil && !filterRE.MatchString(bm.name) {
			continue
		}
		// Settle the previous scenario's garbage first: on a small-core
		// runner a collection triggered by a heavy allocator's leftovers
		// otherwise lands inside whichever timed loop runs next, billing
		// one scenario's heap to another and making the trajectory
		// order-sensitive.
		runtime.GC()
		res := testing.Benchmark(bm.fn)
		report.Benchmarks = append(report.Benchmarks, benchfmt.Result{
			Name:        bm.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		})
		fmt.Fprintf(os.Stderr, "bench %-24s %12.0f ns/op %8d allocs/op\n",
			bm.name,
			float64(res.T.Nanoseconds())/float64(res.N),
			res.AllocsPerOp())
	}
	cs := r.Site.SQL.CacheStats()
	report.PlanCache = &benchfmt.PlanCache{
		Hits:          cs.Hits,
		Misses:        cs.Misses,
		Invalidations: cs.Invalidations,
		HitRate:       cs.HitRate(),
	}
	fh, fm := r.Site.Flex.CompileStats()
	report.FlexCompile = &benchfmt.FlexCompile{Hits: fh, Misses: fm}
	mv := r.Site.Views.Stats()
	report.Matview = &benchfmt.Matview{
		Views:         mv.Views,
		Hits:          mv.Hits,
		StaleHits:     mv.StaleHits,
		Misses:        mv.Misses,
		Refreshes:     mv.Refreshes,
		Invalidations: mv.Invalidations,
	}
	fmt.Fprintf(os.Stderr, "plan cache: %d hits, %d misses, %d invalidations (hit rate %.4f)\n",
		cs.Hits, cs.Misses, cs.Invalidations, cs.HitRate())
	fmt.Fprintf(os.Stderr, "flex compile cache: %d hits, %d misses\n", fh, fm)
	fmt.Fprintf(os.Stderr, "matviews: %d views, %d hits, %d stale hits, %d misses, %d refreshes, %d invalidations\n",
		mv.Views, mv.Hits, mv.StaleHits, mv.Misses, mv.Refreshes, mv.Invalidations)
	if len(observedLatency) > 0 {
		report.Latency = observedLatency
		for _, l := range report.Latency {
			fmt.Fprintf(os.Stderr, "observed latency %-48q %8d ops  p50 %6dns  p95 %6dns  p99 %6dns\n",
				l.SQL, l.Count, l.P50Ns, l.P95Ns, l.P99Ns)
		}
	}
	// A filtered run may omit the view scenarios the speedup gate reads.
	if filterRE == nil {
		if err := checkViewSpeedup(report); err != nil {
			return err
		}
		if err := checkObservedOverhead(report); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// checkViewSpeedup is the materialization acceptance gate: serving the
// feed from the warm view must beat forcing a recompute by at least 5×.
// The margin in practice is orders of magnitude (an atomic load versus
// a full aggregation pass), so a failure means the serve path stopped
// riding the view.
func checkViewSpeedup(report benchfmt.Report) error {
	var cold, warm float64
	for _, b := range report.Benchmarks {
		switch b.Name {
		case "ColdViewBuild":
			cold = b.NsPerOp
		case "WarmViewServe":
			warm = b.NsPerOp
		}
	}
	if cold == 0 || warm == 0 {
		return fmt.Errorf("bench: missing ColdViewBuild/WarmViewServe results")
	}
	if cold < 5*warm {
		return fmt.Errorf("bench: warm view serve is only %.1f× faster than forced recompute (%0.f vs %0.f ns/op), want ≥5×",
			cold/warm, cold, warm)
	}
	fmt.Fprintf(os.Stderr, "warm view serve %.0f× faster than forced recompute\n", cold/warm)
	return nil
}

// checkObservedOverhead is the observation acceptance gate: the same
// prepared point lookup with the collector installed must stay within
// 2× of the bare run. The real margin is far tighter (one sync.Map
// load, a histogram add and an atomic floor check against microseconds
// of execution), so the loose bound survives noisy runners while still
// catching an accidentally heavy record path; the ObservedPointLookup
// trajectory entry carries the precise cost under benchdiff's 25%
// PR-over-PR gate.
func checkObservedOverhead(report benchfmt.Report) error {
	var bare, observed float64
	for _, b := range report.Benchmarks {
		switch b.Name {
		case "PreparedPointLookup":
			bare = b.NsPerOp
		case "ObservedPointLookup":
			observed = b.NsPerOp
		}
	}
	if bare == 0 || observed == 0 {
		return fmt.Errorf("bench: missing PreparedPointLookup/ObservedPointLookup results")
	}
	if observed > 2*bare {
		return fmt.Errorf("bench: observed point lookup is %.2f× the bare one (%.0f vs %.0f ns/op), want ≤2×",
			observed/bare, observed, bare)
	}
	fmt.Fprintf(os.Stderr, "observation overhead %.2f× on the prepared point lookup\n", observed/bare)
	return nil
}
