package main

import "testing"

func TestDeltaMetricsArithmetic(t *testing.T) {
	before := counters{
		planHits: 10, planMisses: 0, planInval: 2,
		walCommits: 100, walSyncs: 90, walRides: 5, walAppends: 300, walSyncWaitNs: 1e6,
		pagerFlushes: 100, ckCount: 1,
		sql:      stmtTotals{count: 50, rows: 500, totalNs: 1e6},
		http:     stmtTotals{count: 10, totalNs: 10e6},
		goAllocs: 1000, goCPU: 1, goGCCPU: 0.1,
	}
	after := before
	after.planHits, after.planMisses, after.planInval = 90, 20, 5
	after.walCommits, after.walSyncs, after.walRides, after.walAppends = 110, 98, 7, 340
	after.walSyncWaitNs = 21e6
	after.pagerFlushes, after.ckCount = 1100, 3
	after.sql = stmtTotals{count: 250, rows: 2500, totalNs: 5e6}
	after.http = stmtTotals{count: 110, totalNs: 60e6}
	after.goAllocs, after.goCPU, after.goGCCPU = 51000, 3, 0.5

	got := map[string]float64{}
	for _, m := range (delta{before: before, after: after, requests: 100, writes: 10}).metrics() {
		got[m.name] = m.value
	}
	for name, want := range map[string]float64{
		"sqlmini.stmts_per_req":           2,
		"sqlmini.busy_ms_per_req":         0.04,
		"sqlmini.rows_per_stmt":           10,
		"sqlmini.plancache.hit_ratio":     0.8,
		"sqlmini.plancache.invalidations": 3,
		"wal.commits_per_write":           1,
		"wal.syncs_per_write":             0.8,
		"wal.appends_per_write":           4,
		"wal.group_ride_ratio":            0.2,
		"wal.sync_wait_ms_per_write":      2,
		"checkpoint.count":                2,
		"checkpoint.pages":                500,
		"server.handler_mean_ms":          0.5,
		"go.allocs_per_req":               500,
		"go.gc_cpu_frac":                  0.2,
		"matview.hit_ratio":               0, // no view reads: the ratio has no base
		"flexrecs.compile.hit_ratio":      0,
	} {
		if v, ok := got[name]; !ok || abs(v-want) > 1e-9 {
			t.Errorf("%s = %v (present %v), want %v", name, v, ok, want)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestRoutePatternFoldsRawPaths(t *testing.T) {
	for fp, want := range map[string]string{
		"GET /api/course/17":            "GET /api/course/{id}",
		"GET /api/course/1861":          "GET /api/course/{id}",
		"GET /api/feed/CS":              "GET /api/feed/{dep}",
		"GET /api/advise/quarters/4":    "GET /api/advise/quarters/{courseId}",
		"GET /api/advise/majors":        "GET /api/advise/majors",
		"GET /api/recommend/cf-courses": "GET /api/recommend/cf-courses",
		"POST /api/review":              "POST /api/review",
	} {
		if got := routePattern(fp); got != want {
			t.Errorf("routePattern(%q) = %q, want %q", fp, got, want)
		}
	}
}

func TestRouteMeansAreWindowDeltas(t *testing.T) {
	d := delta{
		before: counters{routes: map[string]stmtTotals{"GET /api/course/{id}": {count: 10, totalNs: 10e6}}},
		after: counters{routes: map[string]stmtTotals{
			"GET /api/course/{id}": {count: 30, totalNs: 50e6},
			"GET /api/plan":        {count: 4, totalNs: 2e6},
		}},
	}
	m := d.routeMeans()
	if len(m) != 2 || m["GET /api/course/{id}"] != 2 || m["GET /api/plan"] != 0.5 {
		t.Fatalf("routeMeans = %+v", m)
	}
}

func TestSQLOverflowExcludesUnheldRequests(t *testing.T) {
	d := delta{
		before: counters{overflow: stmtTotals{count: 40}},
		after:  counters{overflow: stmtTotals{count: 100}},
		unheld: 60,
	}
	if n := d.sqlOverflow(); n != 0 {
		t.Fatalf("every overflow record was an unheld request, sqlOverflow = %d", n)
	}
	d.unheld = 55
	if n := d.sqlOverflow(); n != 5 {
		t.Fatalf("sqlOverflow = %d, want 5", n)
	}
}
