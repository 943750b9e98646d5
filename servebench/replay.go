package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"courserank/internal/catalog"
	"courserank/internal/cloud"
	"courserank/internal/comments"
	"courserank/internal/community"
	"courserank/internal/core"
	"courserank/internal/flexrecs"
	"courserank/internal/render"
	"courserank/internal/search"
)

// replayer runs generated requests by calling what each HTTP handler
// calls, in the handler's order, with a span around every call. The
// response value is encoded to io.Discard under a json.encode span, as
// the handler would write it.
type replayer struct {
	site *core.Site
	u    *Universe
	t    *Tracer
	enc  *json.Encoder
}

func newReplayer(site *core.Site, u *Universe, t *Tracer) *replayer {
	return &replayer{site: site, u: u, t: t, enc: json.NewEncoder(io.Discard)}
}

// call runs fn inside a span named name under parent.
func (p *replayer) call(req int64, parent int32, name string, fn func() error) error {
	id := p.t.Begin(req, parent, name)
	err := fn()
	p.t.End(id)
	return err
}

// do replays one request. It returns the write's ack, if any.
func (p *replayer) do(req int64, r Request) (*ack, error) {
	root := p.t.Begin(req, -1, "request."+string(r.Class))
	defer p.t.End(root)
	s := p.site
	call := func(name string, fn func() error) error { return p.call(req, root, name, fn) }
	encode := func(v func() any) error {
		return call("json.encode", func() error { return p.enc.Encode(v()) })
	}

	var u community.User
	if err := call("community.session", func() error {
		var ok bool
		if u, ok = s.Community.Session(p.u.Students[r.Student].Token); !ok {
			return fmt.Errorf("no session for student %d", p.u.Students[r.Student].ID)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	switch r.Class {
	case ClassCourse:
		var page string
		var c catalog.Course
		var avg float64
		var n int
		err := call("render.coursepage", func() (err error) {
			page, err = render.CoursePage(s, r.Course)
			return err
		})
		if err != nil {
			return nil, err
		}
		_ = call("catalog.course", func() error { c, _ = s.Catalog.Course(r.Course); return nil })
		_ = call("comments.avg_rating", func() error { avg, n = s.Comments.AvgRating(r.Course); return nil })
		return nil, encode(func() any {
			return map[string]any{"course": c, "avgRating": avg, "raters": n, "page": page}
		})

	case ClassFeed:
		var entries []core.FeedEntry
		err := call("core.feed", func() (err error) {
			entries, _, err = s.TopRatedFeed(r.Dep, r.K)
			return err
		})
		if err != nil {
			return nil, err
		}
		if len(entries) == 0 {
			return nil, fmt.Errorf("feed %s: no entries", r.Dep)
		}
		return nil, encode(func() any { return map[string]any{"dep": r.Dep, "entries": entries} })

	case ClassPlan:
		var plan any
		var page string
		_ = call("planner.plan", func() error { plan = s.Planner.Plan(u.ID); return nil })
		_ = call("render.plan", func() error { page = render.Plan(s, u.ID); return nil })
		return nil, encode(func() any { return map[string]any{"plan": plan, "page": page} })

	case ClassPoints:
		var pts int
		var ledger []community.LedgerEntry
		_ = call("community.points", func() error { pts = s.Community.Points(u.ID); return nil })
		_ = call("community.ledger", func() error { ledger = s.Community.Ledger(u.ID); return nil })
		return nil, encode(func() any { return map[string]any{"points": pts, "ledger": ledger} })

	case ClassLeaderboard:
		var lb []community.LeaderboardEntry
		_ = call("community.leaderboard", func() error { lb = s.Community.Leaderboard(10); return nil })
		return nil, encode(func() any { return lb })

	case ClassAdvise:
		var v any
		if r.Majors {
			_ = call("advisor.majors", func() error { v = s.Advisor.RecommendMajors(u.ID, 10); return nil })
		} else if err := call("advisor.quarters", func() (err error) {
			v, err = s.Advisor.BestQuarters(u.ID, r.Course)
			return err
		}); err != nil {
			return nil, err
		}
		return nil, encode(func() any { return v })

	case ClassRated, ClassRecommend:
		strategy, params := "rated-courses", map[string]any{"student": u.ID}
		if r.Class == ClassRecommend {
			strategy = r.Strategy
			for k, vs := range r.strategyParams() {
				params[k] = vs[0]
			}
		}
		var res *flexrecs.Relation
		err := call("flexrecs.run", func() (err error) {
			res, err = s.Strategies.Run(s.Flex, strategy, params)
			return err
		})
		if err != nil {
			return nil, err
		}
		if res.Len() == 0 {
			return nil, fmt.Errorf("recommend %s: no rows", strategy)
		}
		return nil, encode(func() any {
			rows := make([][]string, res.Len())
			for i := range res.Rows {
				rows[i] = res.Strings(i)
			}
			return map[string]any{"columns": res.Cols, "rows": rows}
		})

	case ClassSearch:
		var res *search.Results
		err := call("search.query", func() (err error) {
			res, err = s.SearchCourses(r.Query)
			return err
		})
		if err == nil && r.Refine != "" {
			err = call("search.refine", func() (err error) {
				res, err = s.RefineSearch(res, r.Refine)
				return err
			})
		}
		var cl *cloud.Cloud
		if err == nil {
			err = call("cloud.build", func() (err error) {
				cl, err = s.CourseCloud(res, 30)
				return err
			})
		}
		if err != nil {
			return nil, err
		}
		var hits []catalog.Course
		_ = call("catalog.hits", func() error {
			for _, h := range res.Top(20) {
				if c, ok := s.Catalog.Course(h.DocID); ok {
					hits = append(hits, c)
				}
			}
			return nil
		})
		return nil, encode(func() any {
			terms := make([]map[string]any, 0, len(cl.Terms))
			for _, t := range cl.Alphabetical() {
				terms = append(terms, map[string]any{"term": t.Text, "weight": t.Weight, "docs": t.ResultDocs})
			}
			return map[string]any{"total": res.Total(), "query": res.Query.String(), "hits": hits, "cloud": terms}
		})

	case ClassReview:
		var id int64
		err := call("core.enroll_comment_rate", func() (err error) {
			id, err = s.EnrollCommentRate(core.Review{
				SuID: u.ID, CourseID: r.Course, Year: r.Year, Term: catalog.Term(r.Term),
				Text: r.Text, Rating: r.Rating,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, a := range []struct {
			kind   string
			points int
		}{{"comment", community.PointsComment}, {"rating", community.PointsRating}} {
			if err := call("community.award", func() error { return s.Community.Award(u.ID, a.kind, a.points, "") }); err != nil {
				return nil, err
			}
		}
		return &ack{class: r.Class, commentID: id, su: u.ID, course: r.Course, rating: r.Rating},
			encode(func() any { return map[string]int64{"commentId": id} })

	case ClassRate:
		if err := call("comments.rate", func() error { return s.Comments.Rate(u.ID, r.Course, r.Rating) }); err != nil {
			return nil, err
		}
		if err := call("community.award", func() error {
			return s.Community.Award(u.ID, "rating", community.PointsRating, "")
		}); err != nil {
			return nil, err
		}
		return &ack{class: r.Class, su: u.ID, course: r.Course, rating: r.Rating},
			encode(func() any { return map[string]bool{"ok": true} })

	case ClassComment:
		var id int64
		err := call("comments.add", func() (err error) {
			id, err = s.Comments.Add(comments.Comment{
				SuID: u.ID, CourseID: r.Course, Year: r.Year, Term: r.Term, Text: r.Text, Rating: r.Rating,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := call("community.award", func() error {
			return s.Community.Award(u.ID, "comment", community.PointsComment, "")
		}); err != nil {
			return nil, err
		}
		return &ack{class: r.Class, commentID: id, su: u.ID, course: r.Course},
			encode(func() any { return map[string]int64{"commentId": id} })
	}
	return nil, fmt.Errorf("replay: unknown class %q", r.Class)
}

// replayResult is a replay's outcome: per-mode wall time and request
// counts, the acks of its writes, and its failures.
type replayResult struct {
	n        [2]int           // requests replayed with tracing off, on
	elapsed  [2]time.Duration // wall time spent in each mode
	acks     []*ack
	failures []error
}

// replay runs gen's requests for dur, each read twice — once with
// tracing off and once on, the order alternating — and each write once,
// in the two modes by turns. The pairs keep the overhead estimate free
// of request-to-request variation; the traced runs leave their spans in
// p.t.
func (p *replayer) replay(gen *Generator, dur time.Duration) replayResult {
	var res replayResult
	start := time.Now()
	run := func(req int64, mode int, r Request) {
		p.t.on = mode == 1
		t0 := time.Now()
		a, err := p.do(req, r)
		res.elapsed[mode] += time.Since(t0)
		res.n[mode]++
		if err != nil {
			res.failures = append(res.failures, err)
		} else if a != nil {
			res.acks = append(res.acks, a)
		}
	}
	for req := int64(0); time.Since(start) < dur; req++ {
		r := gen.Next()
		first := int(req % 2)
		run(req, first, r)
		if !r.Class.Write() {
			run(req, 1-first, r)
		}
	}
	p.t.on = false
	return res
}

// overhead is the traced replay's mean time per request over the
// untraced one's, minus one.
func (r replayResult) overhead() float64 {
	if r.n[0] == 0 || r.n[1] == 0 {
		return 0
	}
	off := float64(r.elapsed[0]) / float64(r.n[0])
	on := float64(r.elapsed[1]) / float64(r.n[1])
	return on/off - 1
}
