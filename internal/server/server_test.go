package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"courserank/internal/core"
	"courserank/internal/datagen"
	"courserank/internal/relation"
	"courserank/internal/wal"
)

func testServer(t *testing.T) (*httptest.Server, *core.Site, *datagen.Manifest) {
	t.Helper()
	site, err := core.NewSite()
	if err != nil {
		t.Fatal(err)
	}
	man, err := datagen.Populate(site, datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(site))
	t.Cleanup(ts.Close)
	t.Cleanup(site.Close)
	return ts, site, man
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// login obtains a session token for a registered directory user.
func login(t *testing.T, ts *httptest.Server, username string) string {
	t.Helper()
	resp := postJSON(t, ts.URL+"/api/login", map[string]string{"username": username})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("login status %d", resp.StatusCode)
	}
	out := decode[map[string]string](t, resp)
	return out["token"]
}

func TestHealth(t *testing.T) {
	ts, _, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	if out["ok"] != true {
		t.Errorf("health = %v", out)
	}
}

func TestClosedCommunityGate(t *testing.T) {
	ts, _, _ := testServer(t)
	// No token → 401.
	resp, err := http.Get(ts.URL + "/api/search?q=american")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated search status = %d", resp.StatusCode)
	}
	// Registration requires a directory entry.
	resp = postJSON(t, ts.URL+"/api/register", map[string]string{"username": "intruder"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("intruder register status = %d", resp.StatusCode)
	}
}

func TestSearchAndCloudEndpoint(t *testing.T) {
	ts, _, _ := testServer(t)
	token := login(t, ts, "stu00001")
	resp, err := http.Get(ts.URL + "/api/search?q=american&token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	if out["total"].(float64) <= 0 {
		t.Errorf("total = %v", out["total"])
	}
	if len(out["cloud"].([]any)) == 0 {
		t.Error("cloud empty")
	}
	// Refinement narrows.
	resp2, err := http.Get(ts.URL + "/api/search?q=american&refine=african+american&token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out2 := decode[map[string]any](t, resp2)
	if out2["total"].(float64) >= out["total"].(float64) {
		t.Errorf("refine did not narrow: %v → %v", out["total"], out2["total"])
	}
}

func TestCourseAndPlanEndpoints(t *testing.T) {
	ts, _, man := testServer(t)
	token := login(t, ts, "stu00001")
	resp, err := http.Get(fmt.Sprintf("%s/api/course/%d?token=%s", ts.URL, man.Planted["intro-programming"], token))
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	if out["page"] == nil {
		t.Error("missing rendered page")
	}
	resp2, err := http.Get(ts.URL + "/api/plan?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out2 := decode[map[string]any](t, resp2)
	if out2["plan"] == nil {
		t.Error("missing plan")
	}
	// Bad course id.
	resp3, _ := http.Get(ts.URL + "/api/course/99999999?token=" + token)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("missing course status = %d", resp3.StatusCode)
	}
}

func TestReviewEndpoint(t *testing.T) {
	ts, site, man := testServer(t)
	token := login(t, ts, "stu00007")
	u, _ := site.Community.UserByUsername("stu00007")
	before := site.Community.Points(u.ID)
	baseEnrolls := len(site.Planner.Entries(u.ID))
	course := man.Planted["intro-programming"]

	resp := postJSON(t, ts.URL+"/api/review?token="+token, map[string]any{
		"courseId": course, "year": 2008, "term": "Autumn", "grade": "A",
		"text": "exactly as advertised", "rating": 4,
	})
	out := decode[map[string]any](t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("review status = %d (%v)", resp.StatusCode, out)
	}
	if out["commentId"].(float64) <= 0 {
		t.Errorf("commentId = %v", out["commentId"])
	}
	// All three writes landed: enrollment, comment, standalone rating.
	if n := len(site.Planner.Entries(u.ID)) - baseEnrolls; n != 1 {
		t.Errorf("new enrollments = %d, want 1", n)
	}
	if n := len(site.Comments.ByCourse(course)); n == 0 {
		t.Error("comment missing")
	}
	if _, n := site.Comments.AvgRating(course); n == 0 {
		t.Error("rating missing")
	}
	// Comment (2) + rating (1) points awarded together.
	if got := site.Community.Points(u.ID) - before; got != 3 {
		t.Errorf("points earned = %d, want 3", got)
	}
	// The transaction counters moved and the workflow committed.
	if st := site.DB.TxStats(); st.Committed == 0 || st.Active != 0 {
		t.Errorf("tx stats after review = %+v", st)
	}

	// A duplicate submission is rejected whole: no second enrollment,
	// no orphan comment, no points.
	before = site.Community.Points(u.ID)
	resp = postJSON(t, ts.URL+"/api/review?token="+token, map[string]any{
		"courseId": course, "year": 2008, "term": "Autumn",
		"text": "double-posted by accident", "rating": 2,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("duplicate review status = %d", resp.StatusCode)
	}
	if n := len(site.Planner.Entries(u.ID)) - baseEnrolls; n != 1 {
		t.Errorf("new enrollments after duplicate = %d, want 1", n)
	}
	if got := site.Community.Points(u.ID) - before; got != 0 {
		t.Errorf("points after rejected review = %d, want 0", got)
	}
}

func TestCommentRateAndPoints(t *testing.T) {
	ts, site, man := testServer(t)
	token := login(t, ts, "stu00005")
	u, _ := site.Community.UserByUsername("stu00005")
	before := site.Community.Points(u.ID)

	resp := postJSON(t, ts.URL+"/api/comment?token="+token, map[string]any{
		"courseId": man.Planted["intro-programming"], "year": 2008, "term": "Autumn",
		"text": "wonderful course", "rating": 5,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("comment status = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/api/rate?token="+token, map[string]any{
		"courseId": man.Planted["intro-programming"], "rating": 5,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rate status = %d", resp.StatusCode)
	}
	// Comment (2) + rating (1); the login point landed before the
	// snapshot was taken.
	got := site.Community.Points(u.ID) - before
	if got != 3 {
		t.Errorf("points earned = %d, want 3", got)
	}
	respP, err := http.Get(ts.URL + "/api/points?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, respP)
	if out["points"].(float64) < 4 {
		t.Errorf("points endpoint = %v", out["points"])
	}
	// Bad rating rejected.
	resp = postJSON(t, ts.URL+"/api/rate?token="+token, map[string]any{
		"courseId": man.Planted["intro-programming"], "rating": 9,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad rating status = %d", resp.StatusCode)
	}
}

func TestRecommendEndpoint(t *testing.T) {
	ts, _, _ := testServer(t)
	token := login(t, ts, "stu00001")
	resp, err := http.Get(ts.URL + "/api/recommend/related-courses?title=Introduction+to+Programming&k=3&token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	if len(out["rows"].([]any)) == 0 {
		t.Error("no recommendations")
	}
	resp2, _ := http.Get(ts.URL + "/api/recommend/no-such-strategy?token=" + token)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown strategy status = %d", resp2.StatusCode)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts, _, _ := testServer(t)
	token := login(t, ts, "stu00001")
	resp, err := http.Get(ts.URL + "/api/explain/related-courses?title=Introduction+to+Programming&year=2008&k=3&token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]string](t, resp)
	plan := out["plan"]
	// The plan must surface both layers: the compiled SQL and the
	// physical access paths the query planner picked underneath it.
	for _, want := range []string{"SQL>", "index probe", "hash join"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	resp2, err := http.Get(ts.URL + "/api/explain/no-such-strategy?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown strategy status = %d", resp2.StatusCode)
	}
}

// TestStatsEndpoint: /api/stats is authenticated, reports the shared
// plan cache, and its counters move when repeated recommendation
// requests hit cached plans.
func TestStatsEndpoint(t *testing.T) {
	ts, site, _ := testServer(t)

	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated stats status = %d", resp.StatusCode)
	}

	token := login(t, ts, "stu00001")
	site.SQL.ResetCacheStats()
	// Same strategy three times: the first may plan, the rest must hit.
	for i := 0; i < 3; i++ {
		r, err := http.Get(ts.URL + "/api/recommend/related-courses?title=Introduction+to+Programming&k=3&token=" + token)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	resp, err = http.Get(ts.URL + "/api/stats?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	pc, ok := out["planCache"].(map[string]any)
	if !ok {
		t.Fatalf("no planCache in %v", out)
	}
	for _, key := range []string{"hits", "misses", "invalidations", "entries", "hitRate"} {
		if _, ok := pc[key]; !ok {
			t.Errorf("planCache missing %q: %v", key, pc)
		}
	}
	if hits := pc["hits"].(float64); hits == 0 {
		t.Errorf("repeated recommendations produced no cache hits: %v", pc)
	}
	if rate := pc["hitRate"].(float64); rate <= 0.5 {
		t.Errorf("hit rate %v after repeated identical requests", rate)
	}
	if _, ok := out["scale"]; !ok {
		t.Errorf("stats missing scale: %v", out)
	}
	mv, ok := out["matviews"].(map[string]any)
	if !ok {
		t.Fatalf("no matviews in %v", out)
	}
	if _, ok := out["flexMaterialize"].(map[string]any); !ok {
		t.Fatalf("no flexMaterialize in %v", out)
	}
	for _, key := range []string{"views", "hits", "staleHits", "misses", "refreshes", "invalidations", "errors"} {
		if _, ok := mv[key]; !ok {
			t.Errorf("matviews missing %q: %v", key, mv)
		}
	}
	if _, ok := out["durability"]; ok {
		t.Errorf("memory-backed site should not report durability: %v", out["durability"])
	}
	tx, ok := out["transactions"].(map[string]any)
	if !ok {
		t.Fatalf("no transactions in %v", out)
	}
	for _, key := range []string{"active", "committed", "aborted", "conflicts"} {
		if _, ok := tx[key]; !ok {
			t.Errorf("transactions missing %q: %v", key, tx)
		}
	}
	if active := tx["active"].(float64); active != 0 {
		t.Errorf("idle site reports %v active transactions", active)
	}
}

// TestDurableStatsEndpoint: a durable site's /api/stats grows a
// durability section whose WAL counters reflect the journaled writes.
func TestDurableStatsEndpoint(t *testing.T) {
	site, err := core.NewDurableSite(t.TempDir(), relation.DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.Populate(site, datagen.Tiny()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(site))
	t.Cleanup(ts.Close)
	t.Cleanup(site.Close)

	token := login(t, ts, "stu00001")
	resp, err := http.Get(ts.URL + "/api/stats?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	dur, ok := out["durability"].(map[string]any)
	if !ok {
		t.Fatalf("no durability section in %v", out)
	}
	w, ok := dur["wal"].(map[string]any)
	if !ok {
		t.Fatalf("durability missing wal: %v", dur)
	}
	if appends := w["appends"].(float64); appends == 0 {
		t.Errorf("populated durable site reports zero WAL appends: %v", w)
	}
	if dur["policy"] != "sync" {
		t.Errorf("policy = %v, want sync", dur["policy"])
	}
	if _, ok := dur["pager"].(map[string]any); !ok {
		t.Errorf("durability missing pager: %v", dur)
	}
}

// TestViewsAndFeedEndpoints: /api/views lists the registered
// materialized views with their counters, and /api/feed serves a
// department feed off the async view, moving the view's hit counters.
func TestViewsAndFeedEndpoints(t *testing.T) {
	ts, site, _ := testServer(t)

	resp, err := http.Get(ts.URL + "/api/views")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated views status = %d", resp.StatusCode)
	}

	token := login(t, ts, "stu00001")
	// Traffic through the view-backed paths: the baseline recommenders'
	// ratings view and the top-rated feed.
	if out := site.Baseline.Popularity(2, 5); len(out) == 0 {
		t.Fatal("no popularity results")
	}
	for i := 0; i < 2; i++ {
		r, err := http.Get(ts.URL + "/api/feed/CS?k=5&token=" + token)
		if err != nil {
			t.Fatal(err)
		}
		feed := decode[map[string]any](t, r)
		entries, ok := feed["entries"].([]any)
		if !ok || len(entries) == 0 {
			t.Fatalf("feed = %v, want entries", feed)
		}
		if feed["served"] != "built" && feed["served"] != "fresh" && feed["served"] != "stale" {
			t.Fatalf("feed served = %v", feed["served"])
		}
	}

	respV, err := http.Get(ts.URL + "/api/views?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, respV)
	views, ok := out["views"].([]any)
	if !ok || len(views) < 2 {
		t.Fatalf("views = %v, want at least the ratings view and the feed view", out)
	}
	byName := map[string]map[string]any{}
	for _, v := range views {
		m := v.(map[string]any)
		byName[m["name"].(string)] = m
	}
	feed, ok := byName["core/top-rated-by-dept"]
	if !ok {
		t.Fatalf("feed view missing from %v", byName)
	}
	if feed["mode"] != "async" || feed["hasSnapshot"] != true {
		t.Errorf("feed view entry = %v", feed)
	}
	// One build plus one warm hit from the two feed requests.
	if feed["hits"].(float64) < 1 || feed["refreshes"].(float64) < 1 {
		t.Errorf("feed view counters did not move: %v", feed)
	}
	if _, ok := byName["recommend/ratings-by-student"]; !ok {
		t.Errorf("ratings view missing from %v", byName)
	}
}

func TestLeaderboardAndComponents(t *testing.T) {
	ts, _, _ := testServer(t)
	token := login(t, ts, "stu00001")
	resp, err := http.Get(ts.URL + "/api/leaderboard?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("leaderboard status = %d", resp.StatusCode)
	}
	respC, err := http.Get(ts.URL + "/api/components?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	comps := decode[[]map[string]any](t, respC)
	if len(comps) != 13 {
		t.Errorf("components = %d", len(comps))
	}
}

func TestAdvisorEndpoints(t *testing.T) {
	ts, _, man := testServer(t)
	token := login(t, ts, "stu00001")
	resp, err := http.Get(ts.URL + "/api/advise/majors?token=" + token)
	if err != nil {
		t.Fatal(err)
	}
	fits := decode[[]map[string]any](t, resp)
	if len(fits) == 0 {
		t.Error("no major recommendations")
	}
	resp2, err := http.Get(fmt.Sprintf("%s/api/advise/quarters/%d?token=%s", ts.URL, man.Planted["intro-programming"], token))
	if err != nil {
		t.Fatal(err)
	}
	quarters := decode[[]map[string]any](t, resp2)
	if len(quarters) == 0 {
		t.Error("no quarter recommendations")
	}
	resp3, _ := http.Get(ts.URL + "/api/advise/quarters/99999999?token=" + token)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("missing course status = %d", resp3.StatusCode)
	}
}

func TestCompareEndpointRoleGate(t *testing.T) {
	ts, site, man := testServer(t)
	course := man.Planted["intro-programming"]
	// Students are rejected.
	stu := login(t, ts, "stu00001")
	resp, _ := http.Get(fmt.Sprintf("%s/api/compare/%d?token=%s", ts.URL, course, stu))
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("student compare status = %d", resp.StatusCode)
	}
	// Faculty see the comparison (fac0001 is registered by datagen).
	fac := login(t, ts, "fac0001")
	resp2, err := http.Get(fmt.Sprintf("%s/api/compare/%d?token=%s", ts.URL, course, fac))
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp2)
	if out["AvgRating"] == nil {
		t.Errorf("comparison = %v", out)
	}
	_ = site
}

func TestBearerTokenHeader(t *testing.T) {
	ts, _, _ := testServer(t)
	token := login(t, ts, "stu00002")
	req, _ := http.NewRequest("GET", ts.URL+"/api/search?q=american", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("bearer auth status = %d", resp.StatusCode)
	}
}
