package server

import (
	"net/http"
	"net/http/httptest"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, as cmd/courserank -pprof does
	"reflect"
	"sort"
	"strings"
	"testing"

	"courserank/internal/core"
	"courserank/internal/datagen"
	"courserank/internal/relation"
	"courserank/internal/wal"
)

// observedServer is testServer with query-level observability on —
// the configuration cmd/courserank runs with.
func observedServer(t *testing.T) (*httptest.Server, *core.Site) {
	t.Helper()
	site, err := core.NewSite()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.Populate(site, datagen.Tiny()); err != nil {
		t.Fatal(err)
	}
	site.EnableObservability()
	ts := httptest.NewServer(New(site))
	t.Cleanup(ts.Close)
	t.Cleanup(site.Close)
	return ts, site
}

func keysOf(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestStatsPayloadGoldenKeys pins the /api/stats key set — the typed
// statsPayload struct is the contract, and this golden asserts the
// full set for each deployment shape.
func TestStatsPayloadGoldenKeys(t *testing.T) {
	ts, _, _ := testServer(t)
	token := login(t, ts, "stu00001")
	resp, err := http.Get(ts.URL + "/api/stats?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	want := []string{"flexCompile", "flexMaterialize", "matviews", "planCache", "scale", "transactions"}
	if got := keysOf(out); !reflect.DeepEqual(got, want) {
		t.Errorf("plain site stats keys = %v, want %v", got, want)
	}
	wantTx := []string{"aborted", "active", "committed", "conflicts"}
	if got := keysOf(out["transactions"].(map[string]any)); !reflect.DeepEqual(got, wantTx) {
		t.Errorf("transactions keys = %v, want %v", got, wantTx)
	}
	wantPC := []string{"entries", "hitRate", "hits", "invalidations", "misses"}
	if got := keysOf(out["planCache"].(map[string]any)); !reflect.DeepEqual(got, wantPC) {
		t.Errorf("planCache keys = %v, want %v", got, wantPC)
	}

	// A durable, observed site grows durability + walWait, and the
	// transactions section grows the collector's observed outcomes.
	site, err := core.NewDurableSite(t.TempDir(), relation.DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.Populate(site, datagen.Tiny()); err != nil {
		t.Fatal(err)
	}
	site.EnableObservability()
	dts := httptest.NewServer(New(site))
	t.Cleanup(dts.Close)
	t.Cleanup(site.Close)
	dtoken := login(t, dts, "stu00001")
	resp, err = http.Get(dts.URL + "/api/stats?token=" + dtoken)
	if err != nil {
		t.Fatal(err)
	}
	dout := decode[map[string]any](t, resp)
	dwant := []string{"durability", "flexCompile", "flexMaterialize", "matviews", "planCache", "scale", "transactions", "walWait"}
	if got := keysOf(dout); !reflect.DeepEqual(got, dwant) {
		t.Errorf("durable site stats keys = %v, want %v", got, dwant)
	}
	ww := dout["walWait"].(map[string]any)
	for _, k := range []string{"syncWaitNs", "rideWaitNs", "syncs", "groupRides"} {
		if _, ok := ww[k]; !ok {
			t.Errorf("walWait missing %q: %v", k, ww)
		}
	}
	if ww["syncs"].(float64) == 0 {
		t.Errorf("SyncAlways site with populated data reports zero fsyncs: %v", ww)
	}
	if _, ok := dout["transactions"].(map[string]any)["observed"]; !ok {
		t.Errorf("observed site's transactions section missing observed outcomes: %v", dout["transactions"])
	}
}

// TestQueriesEndpoint: /api/queries surfaces per-statement histograms
// after traffic, ranked and bounded by k, with both SQL and HTTP
// fingerprints present.
func TestQueriesEndpoint(t *testing.T) {
	ts, site := observedServer(t)
	token := login(t, ts, "stu00001")
	for i := 0; i < 3; i++ {
		r, err := http.Get(ts.URL + "/api/recommend/related-courses?title=Introduction+to+Programming&k=3&token=" + token)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/api/queries?by=p99&token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	if out["by"] != "p99" {
		t.Errorf("by = %v", out["by"])
	}
	qs := out["queries"].([]any)
	if len(qs) == 0 {
		t.Fatal("no queries recorded after traffic")
	}
	var sawSQL, sawHTTP bool
	for _, q := range qs {
		m := q.(map[string]any)
		if m["p99_ns"].(float64) <= 0 || m["count"].(float64) == 0 {
			t.Errorf("empty summary: %v", m)
		}
		switch m["route"] {
		case "query":
			sawSQL = true
		case "http":
			sawHTTP = true
		}
	}
	if !sawSQL || !sawHTTP {
		t.Errorf("want both SQL and HTTP fingerprints (sawSQL=%v sawHTTP=%v): %v", sawSQL, sawHTTP, qs)
	}

	// k bounds the list; bad ?by is a 400.
	resp, err = http.Get(ts.URL + "/api/queries?k=1&token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	if out := decode[map[string]any](t, resp); len(out["queries"].([]any)) != 1 {
		t.Errorf("k=1 returned %d summaries", len(out["queries"].([]any)))
	}
	bad, err := http.Get(ts.URL + "/api/queries?by=p42&token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad by status = %d", bad.StatusCode)
	}

	// Disabling flips the endpoint to 503.
	site.DisableObservability()
	off, err := http.Get(ts.URL + "/api/queries?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	off.Body.Close()
	if off.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("disabled queries status = %d", off.StatusCode)
	}
}

// TestSlowlogEndpoint: slow statements land in /api/slowlog and their
// ANALYZE plans are back-filled by the statement's next execution.
func TestSlowlogEndpoint(t *testing.T) {
	ts, _ := observedServer(t)
	token := login(t, ts, "stu00001")
	for i := 0; i < 3; i++ {
		r, err := http.Get(ts.URL + "/api/recommend/related-courses?title=Introduction+to+Programming&k=3&token=" + token)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/api/slowlog?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	entries := out["entries"].([]any)
	if len(entries) == 0 {
		t.Fatal("slow log empty after traffic")
	}
	var withPlan bool
	for _, e := range entries {
		m := e.(map[string]any)
		if m["latency_ns"].(float64) <= 0 {
			t.Errorf("entry without latency: %v", m)
		}
		if p, ok := m["plan"].(string); ok && strings.Contains(p, "actual rows=") {
			withPlan = true
		}
	}
	if !withPlan {
		t.Error("no slow-log entry carries an ANALYZE-annotated plan")
	}
}

// TestAnalyzeEndpoint: /api/analyze/{strategy} really executes the
// strategy and returns the annotated workflow report.
func TestAnalyzeEndpoint(t *testing.T) {
	ts, _ := observedServer(t)
	token := login(t, ts, "stu00001")
	resp, err := http.Get(ts.URL + "/api/analyze/related-courses?title=Introduction+to+Programming&year=2008&k=3&token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	plan := out["plan"].(string)
	for _, want := range []string{"SQL>", "actual rows=", "analyzed workflow:"} {
		if !strings.Contains(plan, want) {
			t.Errorf("analyze report missing %q:\n%s", want, plan)
		}
	}
	if out["rows"].(float64) == 0 {
		t.Errorf("analyze executed no rows: %v", out)
	}
	missing, err := http.Get(ts.URL + "/api/analyze/no-such-strategy?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("unknown strategy status = %d", missing.StatusCode)
	}
}

// TestPprofLiveness: the profiling surface cmd/courserank exposes with
// -pprof — net/http/pprof on the default mux — answers.
func TestPprofLiveness(t *testing.T) {
	ts := httptest.NewServer(http.DefaultServeMux)
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status = %d", resp.StatusCode)
	}
}
