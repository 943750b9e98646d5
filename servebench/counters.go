package main

import (
	"regexp"
	"runtime/metrics"

	"courserank/internal/core"
)

// counters is one snapshot of every public engine counter the per-layer
// metrics read. Two snapshots bracket a measured window; their
// difference is what the window did.
type counters struct {
	planHits, planMisses, planInval       uint64
	compileHits, compileMisses            uint64
	matHits, matStale, matMisses          uint64
	viewHits, viewStale, viewMisses       uint64
	viewRefreshes                         uint64
	txCommitted, txAborted, txConflicts   uint64
	notifyUnconfirmed                     uint64
	walAppends, walCommits, walSyncs      uint64
	walRides                              uint64
	walSyncWaitNs, walRideWaitNs          int64
	pagerFlushes, pagerEvictions, ckCount uint64

	sql, http stmtTotals            // statement and HTTP fingerprints
	overflow  stmtTotals            // records past the fingerprint cap
	routes    map[string]stmtTotals // HTTP fingerprints by route pattern
	httpKeys  map[string]bool       // the HTTP fingerprints held

	goAllocs, goAllocBytes, goGCCycles uint64
	goGCCPU, goCPU                     float64
}

// stmtTotals sums the histograms of a set of fingerprints.
type stmtTotals struct {
	count   uint64
	rows    int64
	totalNs int64
}

func (a stmtTotals) sub(b stmtTotals) stmtTotals {
	return stmtTotals{count: a.count - b.count, rows: a.rows - b.rows, totalNs: a.totalNs - b.totalNs}
}

// overflowKey is the fingerprint the collector files records under once
// it holds its maximum number of distinct fingerprints.
const overflowKey = "(other)"

// runtimeSamples are the runtime/metrics the go.* metrics read.
var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// snapshot reads every counter of the site and of the Go runtime.
func snapshot(site *core.Site) counters {
	var c counters
	cs := site.SQL.CacheStats()
	c.planHits, c.planMisses, c.planInval = cs.Hits, cs.Misses, cs.Invalidations
	c.compileHits, c.compileMisses = site.Flex.CompileStats()
	c.matHits, c.matStale, c.matMisses = site.Flex.MatStats()
	vs := site.Views.Stats()
	c.viewHits, c.viewStale, c.viewMisses, c.viewRefreshes = vs.Hits, vs.StaleHits, vs.Misses, vs.Refreshes
	ts := site.DB.TxStats()
	c.txCommitted, c.txAborted, c.txConflicts = ts.Committed, ts.Aborted, ts.Conflicts
	c.notifyUnconfirmed, _ = site.DB.NotifyStats()
	if site.Durable != nil {
		ds := site.Durable.Stats()
		c.walAppends, c.walCommits, c.walSyncs, c.walRides = ds.WAL.Appends, ds.WAL.Commits, ds.WAL.Syncs, ds.WAL.GroupRides
		c.walSyncWaitNs, c.walRideWaitNs = ds.WAL.SyncWaitNs, ds.WAL.RideWaitNs
		c.pagerFlushes, c.pagerEvictions, c.ckCount = ds.Pager.Flushes, ds.Pager.Evictions, ds.Checkpoints
	}
	c.routes, c.httpKeys = map[string]stmtTotals{}, map[string]bool{}
	if site.Obs != nil {
		for _, q := range site.Obs.Top(0, "total") {
			t := stmtTotals{count: q.Count, rows: q.Rows, totalNs: q.TotalNs}
			switch {
			case q.SQL == overflowKey:
				// Past the collector's fingerprint cap, statements and
				// HTTP paths share one key whose route flips between
				// them; it belongs to neither side.
				c.overflow = t
			case q.Route == "http":
				c.http = c.http.add(t)
				c.httpKeys[q.SQL] = true
				p := routePattern(q.SQL)
				c.routes[p] = c.routes[p].add(t)
			default:
				c.sql = c.sql.add(t)
			}
		}
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	c.goAllocs, c.goAllocBytes, c.goGCCycles = s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
	c.goGCCPU, c.goCPU = s[3].Value.Float64(), s[4].Value.Float64()
	return c
}

func (a stmtTotals) add(b stmtTotals) stmtTotals {
	return stmtTotals{count: a.count + b.count, rows: a.rows + b.rows, totalNs: a.totalNs + b.totalNs}
}

// fingerprints counts the distinct fingerprints the site's collector
// holds — statements plus one per raw HTTP path.
func fingerprints(site *core.Site) int {
	if site.Obs == nil {
		return 0
	}
	return len(site.Obs.Top(0, "total"))
}

// routeRules map a raw "METHOD /path" HTTP fingerprint to its route
// pattern. The server keys its HTTP histograms by raw path, so
// /api/course/1 and /api/course/2 are separate fingerprints; the
// per-route figures add them back up.
var routeRules = []struct {
	re      *regexp.Regexp
	pattern string
}{
	{regexp.MustCompile(`^(\S+) /api/course/[^/]+$`), "$1 /api/course/{id}"},
	{regexp.MustCompile(`^(\S+) /api/feed/[^/]+$`), "$1 /api/feed/{dep}"},
	{regexp.MustCompile(`^(\S+) /api/advise/quarters/[^/]+$`), "$1 /api/advise/quarters/{courseId}"},
	{regexp.MustCompile(`^(\S+) /api/compare/[^/]+$`), "$1 /api/compare/{courseId}"},
}

// routePattern returns the route pattern of an HTTP fingerprint;
// fingerprints without a path parameter are their own pattern.
func routePattern(fp string) string {
	for _, r := range routeRules {
		if r.re.MatchString(fp) {
			return r.re.ReplaceAllString(fp, r.pattern)
		}
	}
	return fp
}

// delta is what happened between two snapshots, with the request and
// write counts the per-request ratios divide by.
type delta struct {
	before, after counters
	requests      int // successful requests in the window
	writes        int // successful writes in the window
	unheld        int // requests sent whose HTTP fingerprint the collector does not hold
}

// sqlOverflow is the number of statement records the window filed under
// the collector's overflow key. Every request whose "METHOD /path" the
// collector does not hold went there too; the rest are statements,
// which the sqlmini figures then miss.
func (d delta) sqlOverflow() int64 {
	return int64(d.after.overflow.count-d.before.overflow.count) - int64(d.unheld)
}

// metrics derives the per-layer counter metrics of the window.
func (d delta) metrics() []metric {
	a, b := d.after, d.before
	req, wr := float64(d.requests), float64(d.writes)
	sql := a.sql.sub(b.sql)
	http := a.http.sub(b.http)
	planLookups := float64(a.planHits - b.planHits + a.planMisses - b.planMisses)
	compiles := float64(a.compileHits - b.compileHits + a.compileMisses - b.compileMisses)
	mats := float64(a.matHits - b.matHits + a.matStale - b.matStale + a.matMisses - b.matMisses)
	viewReads := float64(a.viewHits - b.viewHits + a.viewStale - b.viewStale + a.viewMisses - b.viewMisses)
	txEnded := float64(a.txCommitted - b.txCommitted + a.txAborted - b.txAborted)
	walCommits := float64(a.walCommits - b.walCommits)
	cks := float64(a.ckCount - b.ckCount)
	return []metric{
		{"sqlmini.stmts_per_req", ratio(float64(sql.count), req), "count", "statements / requests"},
		{"sqlmini.busy_ms_per_req", ratio(float64(sql.totalNs)/1e6, req), "ms", "statement time / requests"},
		{"sqlmini.rows_per_stmt", ratio(float64(sql.rows), float64(sql.count)), "count", "rows / statements"},
		{"sqlmini.plancache.hit_ratio", ratio(float64(a.planHits-b.planHits), planLookups), "ratio", "hits / lookups"},
		{"sqlmini.plancache.invalidations", float64(a.planInval - b.planInval), "count", "window"},
		{"flexrecs.compile.hit_ratio", ratio(float64(a.compileHits-b.compileHits), compiles), "ratio", "hits / compiles"},
		{"flexrecs.mat.hit_ratio", ratio(float64(a.matHits-b.matHits), mats), "ratio", "fresh hits / materialize reads"},
		{"matview.hit_ratio", ratio(float64(a.viewHits-b.viewHits), viewReads), "ratio", "fresh hits / view reads"},
		{"matview.stale_ratio", ratio(float64(a.viewStale-b.viewStale), viewReads), "ratio", "stale hits / view reads"},
		{"matview.built", float64(a.viewMisses - b.viewMisses), "count", "reads that built, window"},
		{"matview.refreshes", float64(a.viewRefreshes - b.viewRefreshes), "count", "background refreshes, window"},
		{"relation.tx.commits", float64(a.txCommitted - b.txCommitted), "count", "window"},
		{"relation.tx.aborted", float64(a.txAborted - b.txAborted), "count", "window"},
		{"relation.tx.conflict_ratio", ratio(float64(a.txConflicts-b.txConflicts), txEnded), "ratio", "conflicts / ended transactions"},
		{"relation.notify.unconfirmed", float64(a.notifyUnconfirmed - b.notifyUnconfirmed), "count", "window"},
		{"wal.commits_per_write", ratio(walCommits, wr), "count", "WAL commits / writes"},
		{"wal.syncs_per_write", ratio(float64(a.walSyncs-b.walSyncs), wr), "count", "fsyncs / writes"},
		{"wal.appends_per_write", ratio(float64(a.walAppends-b.walAppends), wr), "count", "records / writes"},
		{"wal.group_ride_ratio", ratio(float64(a.walRides-b.walRides), walCommits), "ratio", "group rides / WAL commits"},
		{"wal.sync_wait_ms_per_write", ratio(float64(a.walSyncWaitNs-b.walSyncWaitNs)/1e6, wr), "ms", "own-fsync wait / writes"},
		{"wal.ride_wait_ms_per_write", ratio(float64(a.walRideWaitNs-b.walRideWaitNs)/1e6, wr), "ms", "group-ride wait / writes"},
		{"pager.flushes", float64(a.pagerFlushes - b.pagerFlushes), "count", "window"},
		{"pager.evictions", float64(a.pagerEvictions - b.pagerEvictions), "count", "window"},
		{"checkpoint.count", cks, "count", "window"},
		{"checkpoint.pages", ratio(float64(a.pagerFlushes-b.pagerFlushes), cks), "count", "pages flushed / checkpoints"},
		{"obs.overflow_records", float64(a.overflow.count - b.overflow.count), "count", "records past the fingerprint cap, window"},
		{"server.handler_mean_ms", ratio(float64(http.totalNs)/1e6, float64(http.count)), "ms", "handler time / HTTP requests"},
		{"go.allocs_per_req", ratio(float64(a.goAllocs-b.goAllocs), req), "count", "heap objects / requests, client included"},
		{"go.alloc_bytes_per_req", ratio(float64(a.goAllocBytes-b.goAllocBytes), req), "bytes", "heap bytes / requests, client included"},
		{"go.gc_cpu_frac", ratio(a.goGCCPU-b.goGCCPU, a.goCPU-b.goCPU), "ratio", "GC CPU / process CPU"},
		{"go.gc_cycles", float64(a.goGCCycles - b.goGCCycles), "count", "window"},
	}
}

// routeMeans returns the server-side mean handler time of each route
// pattern over the window, in milliseconds.
func (d delta) routeMeans() map[string]float64 {
	out := map[string]float64{}
	for p, t := range d.after.routes {
		if w := t.sub(d.before.routes[p]); w.count > 0 {
			out[p] = float64(w.totalNs) / 1e6 / float64(w.count)
		}
	}
	return out
}
