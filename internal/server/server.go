// Package server exposes CourseRank over HTTP as a JSON API — the "User
// Interface" box of Figure 2. Access follows the paper's closed-
// community model: every data endpoint requires a session token issued
// by /api/login, and logins are validated against the university
// directory through the community service.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"courserank/internal/catalog"
	"courserank/internal/cloud"
	"courserank/internal/comments"
	"courserank/internal/community"
	"courserank/internal/core"
	"courserank/internal/matview"
	"courserank/internal/relation"
	"courserank/internal/render"
)

// Server is the HTTP front end over a Site.
type Server struct {
	site *core.Site
	mux  *http.ServeMux
	day  int64 // abstract login day for the incentive scheme
}

// New builds the server and its routes.
func New(site *core.Site) *Server {
	s := &Server{site: site, mux: http.NewServeMux(), day: 1}
	s.mux.HandleFunc("GET /api/health", s.handleHealth)
	s.mux.HandleFunc("POST /api/register", s.handleRegister)
	s.mux.HandleFunc("POST /api/login", s.handleLogin)
	s.mux.HandleFunc("GET /api/search", s.auth(s.handleSearch))
	s.mux.HandleFunc("GET /api/course/{id}", s.auth(s.handleCourse))
	s.mux.HandleFunc("GET /api/plan", s.auth(s.handlePlan))
	s.mux.HandleFunc("POST /api/comment", s.auth(s.handleComment))
	s.mux.HandleFunc("POST /api/rate", s.auth(s.handleRate))
	s.mux.HandleFunc("POST /api/review", s.auth(s.handleReview))
	s.mux.HandleFunc("GET /api/recommend/{strategy}", s.auth(s.handleRecommend))
	s.mux.HandleFunc("GET /api/explain/{strategy}", s.auth(s.handleExplain))
	s.mux.HandleFunc("GET /api/stats", s.auth(s.handleStats))
	s.mux.HandleFunc("GET /api/queries", s.auth(s.handleQueries))
	s.mux.HandleFunc("GET /api/slowlog", s.auth(s.handleSlowlog))
	s.mux.HandleFunc("GET /api/analyze/{strategy}", s.auth(s.handleAnalyze))
	s.mux.HandleFunc("GET /api/views", s.auth(s.handleViews))
	s.mux.HandleFunc("GET /api/feed/{dep}", s.auth(s.handleFeed))
	s.mux.HandleFunc("GET /api/points", s.auth(s.handlePoints))
	s.mux.HandleFunc("GET /api/leaderboard", s.auth(s.handleLeaderboard))
	s.mux.HandleFunc("GET /api/components", s.auth(s.handleComponents))
	s.mux.HandleFunc("GET /api/advise/majors", s.auth(s.handleAdviseMajors))
	s.mux.HandleFunc("GET /api/advise/quarters/{courseId}", s.auth(s.handleAdviseQuarters))
	s.mux.HandleFunc("GET /api/compare/{courseId}", s.auth(s.handleCompare))
	return s
}

// ServeHTTP implements http.Handler. On an observability-enabled site
// every request also lands in a per-endpoint latency histogram.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if c := s.site.Obs; c != nil {
		s.observedServe(c, w, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// auth wraps a handler with session-token validation — the closed
// community gate.
func (s *Server) auth(next func(http.ResponseWriter, *http.Request, community.User)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		token := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
		if token == "" {
			token = r.URL.Query().Get("token")
		}
		u, ok := s.site.Community.Session(token)
		if !ok {
			writeErr(w, http.StatusUnauthorized, fmt.Errorf("valid session required (closed community)"))
			return
		}
		next(w, r, u)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "scale": s.site.Scale()})
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Username string `json:"username"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	u, err := s.site.Community.Register(req.Username)
	if err != nil {
		writeErr(w, http.StatusForbidden, err)
		return
	}
	writeJSON(w, http.StatusOK, u)
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Username string `json:"username"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	token, err := s.site.Community.Login(req.Username, s.day)
	if err != nil {
		writeErr(w, http.StatusForbidden, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"token": token})
}

// handleSearch runs a keyword search and returns hits plus the data
// cloud; ?refine= terms chain Figure 3 → Figure 4 interactions.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request, _ community.User) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing q parameter"))
		return
	}
	res, err := s.site.SearchCourses(q)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	for _, term := range r.URL.Query()["refine"] {
		if res, err = s.site.RefineSearch(res, term); err != nil {
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
	}
	cl, err := s.site.CourseCloud(res, 30)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	type hit struct {
		CourseID int64   `json:"courseId"`
		Code     string  `json:"code"`
		Title    string  `json:"title"`
		Score    float64 `json:"score"`
	}
	hits := make([]hit, 0, 20)
	for _, h := range res.Top(20) {
		if c, ok := s.site.Catalog.Course(h.DocID); ok {
			hits = append(hits, hit{CourseID: c.ID, Code: c.Code(), Title: c.Title, Score: h.Score})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total": res.Total(),
		"query": res.Query.String(),
		"hits":  hits,
		"cloud": cloudJSON(cl),
	})
}

func cloudJSON(c *cloud.Cloud) []map[string]any {
	out := make([]map[string]any, 0, len(c.Terms))
	for _, t := range c.Alphabetical() {
		out = append(out, map[string]any{"term": t.Text, "weight": t.Weight, "docs": t.ResultDocs})
	}
	return out
}

func (s *Server) handleCourse(w http.ResponseWriter, r *http.Request, _ community.User) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	page, err := render.CoursePage(s.site, id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	c, _ := s.site.Catalog.Course(id)
	avg, n := s.site.Comments.AvgRating(id)
	writeJSON(w, http.StatusOK, map[string]any{
		"course": c, "avgRating": avg, "raters": n, "page": page,
	})
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request, u community.User) {
	writeJSON(w, http.StatusOK, map[string]any{
		"plan": s.site.Planner.Plan(u.ID),
		"page": render.Plan(s.site, u.ID),
	})
}

func (s *Server) handleComment(w http.ResponseWriter, r *http.Request, u community.User) {
	var req struct {
		CourseID int64   `json:"courseId"`
		Year     int64   `json:"year"`
		Term     string  `json:"term"`
		Text     string  `json:"text"`
		Rating   float64 `json:"rating"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.site.Comments.Add(comments.Comment{
		SuID: u.ID, CourseID: req.CourseID, Year: req.Year, Term: req.Term,
		Text: req.Text, Rating: req.Rating,
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.site.Community.Award(u.ID, "comment", community.PointsComment, ""); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"commentId": id})
}

// handleReview runs the atomic enroll+comment+rate workflow for the
// logged-in student: all three writes commit in one snapshot-isolation
// transaction or none do. A concurrent submission for the same student
// (two devices racing) loses first-committer-wins and reports 409 so
// the client can retry.
func (s *Server) handleReview(w http.ResponseWriter, r *http.Request, u community.User) {
	var req struct {
		CourseID int64   `json:"courseId"`
		Year     int64   `json:"year"`
		Term     string  `json:"term"`
		Grade    string  `json:"grade"`
		Text     string  `json:"text"`
		Rating   float64 `json:"rating"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.site.EnrollCommentRate(core.Review{
		SuID: u.ID, CourseID: req.CourseID, Year: req.Year,
		Term: catalog.Term(req.Term), Grade: catalog.Grade(req.Grade),
		Text: req.Text, Rating: req.Rating,
	})
	if err != nil {
		if errors.Is(err, relation.ErrTxConflict) {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	for _, award := range []struct {
		kind   string
		points int
	}{{"comment", community.PointsComment}, {"rating", community.PointsRating}} {
		if err := s.site.Community.Award(u.ID, award.kind, award.points, ""); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]int64{"commentId": id})
}

func (s *Server) handleRate(w http.ResponseWriter, r *http.Request, u community.User) {
	var req struct {
		CourseID int64   `json:"courseId"`
		Rating   float64 `json:"rating"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.site.Comments.Rate(u.ID, req.CourseID, req.Rating); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.site.Community.Award(u.ID, "rating", community.PointsRating, ""); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleRecommend runs a registered FlexRecs strategy with query
// parameters as workflow parameters — the per-student personalization
// the paper's FlexRecs interface offers.
// strategyParams collects a strategy's personalization parameters from
// the query string: the logged-in student plus every non-reserved query
// key, integers coerced.
func strategyParams(r *http.Request, u community.User) map[string]any {
	params := map[string]any{"student": u.ID}
	for key, vals := range r.URL.Query() {
		if len(vals) == 0 || key == "token" {
			continue
		}
		if n, err := strconv.ParseInt(vals[0], 10, 64); err == nil {
			params[key] = n
		} else {
			params[key] = vals[0]
		}
	}
	return params
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request, u community.User) {
	strategy := r.PathValue("strategy")
	res, err := s.site.Strategies.Run(s.site.Flex, strategy, strategyParams(r, u))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rows := make([][]string, res.Len())
	for i := range res.Rows {
		rows[i] = res.Strings(i)
	}
	writeJSON(w, http.StatusOK, map[string]any{"columns": res.Cols, "rows": rows})
}

// handleExplain renders a strategy's execution plan without running it:
// the FlexRecs operator tree, the SQL statements its relational
// subtrees compile into, and the access paths and join algorithms the
// query planner chose for each — the end-to-end view of one
// recommendation request.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, u community.User) {
	strategy := r.PathValue("strategy")
	tpl, ok := s.site.Strategies.Get(strategy)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no strategy %q", strategy))
		return
	}
	wf, err := tpl.Build(strategyParams(r, u))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"strategy": strategy,
		"plan":     s.site.Flex.Explain(wf),
	})
}

// handleStats reports engine health counters: the shared plan cache's
// hit/miss/invalidation tallies (every subsystem's SQL flows through
// it, so the hit rate is the fraction of requests that skipped
// parse/plan entirely), the FlexRecs compile cache (a hit means a
// workflow request skipped SQL re-rendering too), the materialized-view
// registry (hits serve a precomputed snapshot, stale hits serve inside
// an async bound while a refresh runs behind the read, misses pay for a
// build), transaction health, plus the deployment scale. Durable sites
// additionally expose "durability" (WAL, pager and checkpoint
// counters) and "walWait" (own-fsync vs group-commit-ride wait
// attribution). The payload is the typed statsPayload in observe.go —
// its key set is the API contract.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, _ community.User) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

// handleViews lists every registered materialized view with its serving
// mode, staleness bound, dependencies, snapshot age and counters — the
// operational window into the materialization layer.
func (s *Server) handleViews(w http.ResponseWriter, r *http.Request, _ community.User) {
	views := s.site.Views.Views()
	out := make([]map[string]any, 0, len(views))
	for _, v := range views {
		st := v.Stats()
		entry := map[string]any{
			"name":          st.Name,
			"mode":          st.Mode,
			"maxStaleMs":    st.MaxStale.Milliseconds(),
			"deps":          st.Deps,
			"hits":          st.Hits,
			"staleHits":     st.StaleHits,
			"misses":        st.Misses,
			"refreshes":     st.Refreshes,
			"invalidations": st.Invalidations,
			"errors":        st.Errors,
			"hasSnapshot":   st.HasSnapshot,
		}
		if st.HasSnapshot {
			entry["ageMs"] = st.Age.Milliseconds()
			entry["lastBuildMs"] = st.LastBuild.Milliseconds()
		}
		out = append(out, entry)
	}
	writeJSON(w, http.StatusOK, map[string]any{"views": out})
}

// handleFeed serves one department's top-rated feed from the async
// materialized view — the stale-bounded read path: inside the bound the
// previous ranking returns instantly while a refresh runs behind it.
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request, _ community.User) {
	dep := r.PathValue("dep")
	k := 10
	if n, err := strconv.Atoi(r.URL.Query().Get("k")); err == nil && n > 0 {
		k = n
	}
	entries, serve, err := s.site.TopRatedFeed(dep, k)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	served := "fresh"
	switch serve.Kind {
	case matview.ServeStale:
		served = "stale"
	case matview.ServeBuilt:
		served = "built"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dep":     dep,
		"entries": entries,
		"served":  served,
		"ageMs":   serve.Age.Milliseconds(),
	})
}

func (s *Server) handlePoints(w http.ResponseWriter, r *http.Request, u community.User) {
	writeJSON(w, http.StatusOK, map[string]any{
		"points": s.site.Community.Points(u.ID),
		"ledger": s.site.Community.Ledger(u.ID),
	})
}

func (s *Server) handleLeaderboard(w http.ResponseWriter, r *http.Request, _ community.User) {
	writeJSON(w, http.StatusOK, s.site.Community.Leaderboard(10))
}

func (s *Server) handleComponents(w http.ResponseWriter, r *http.Request, _ community.User) {
	writeJSON(w, http.StatusOK, s.site.Components())
}

// handleAdviseMajors ranks degree programs by fit with the logged-in
// student's transcript (§3.2 "recommended majors").
func (s *Server) handleAdviseMajors(w http.ResponseWriter, r *http.Request, u community.User) {
	writeJSON(w, http.StatusOK, s.site.Advisor.RecommendMajors(u.ID, 10))
}

// handleAdviseQuarters ranks the quarters in which to take a course
// (§3.2 "recommended quarters in which to take a given course").
func (s *Server) handleAdviseQuarters(w http.ResponseWriter, r *http.Request, u community.User) {
	id, err := strconv.ParseInt(r.PathValue("courseId"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	fits, err := s.site.Advisor.BestQuarters(u.ID, id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, fits)
}

// handleCompare is the faculty view: how a class compares to others
// (§2 "can see how their class compares to other classes"). Faculty and
// staff only — students see ratings through the course page instead.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request, u community.User) {
	if u.Role == community.RoleStudent {
		writeErr(w, http.StatusForbidden, fmt.Errorf("comparison view is for faculty and staff"))
		return
	}
	id, err := strconv.ParseInt(r.PathValue("courseId"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	cmp, ok := s.site.Stats.CompareCourse(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("course %d has no ratings to compare", id))
		return
	}
	writeJSON(w, http.StatusOK, cmp)
}
