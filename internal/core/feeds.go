package core

import (
	"fmt"
	"sort"
	"time"

	"courserank/internal/matview"
)

// matviewWorkers sizes the site's background refresher pool. Two
// workers keep independent async views from queueing behind one slow
// build without spawning a goroutine per view.
const matviewWorkers = 2

// FeedViewName is the registry key of the site's top-rated-per-
// department feed — the async, stale-bounded view every feed-style
// request reads.
const FeedViewName = "core/top-rated-by-dept"

// FeedMaxStale bounds how old a feed snapshot a read may be served:
// inside the bound a request gets the previous ranking instantly while
// a refresh runs behind it; past it the read blocks on the rebuild.
// A couple of seconds is invisible for a ranking that moves one rating
// at a time.
const FeedMaxStale = 2 * time.Second

// FeedEntry is one course in a department's top-rated feed.
type FeedEntry struct {
	CourseID int64   `json:"courseId"`
	Title    string  `json:"title"`
	Avg      float64 `json:"avg"`
	Raters   int64   `json:"raters"`
}

// feedTopPerDept caps how many courses each department's feed keeps.
const feedTopPerDept = 20

// registerFeedViews installs the site's precomputed feed views — the
// paper's "expensive aggregation served at interactive latency"
// pattern. The top-rated feed aggregates every rating in one SQL pass
// and is registered ASYNC: reads inside FeedMaxStale serve the previous
// snapshot immediately while the refresher pool rebuilds behind them.
func (s *Site) registerFeedViews() error {
	_, err := s.Views.Register(matview.Options{
		Name:     FeedViewName,
		Deps:     []string{"Comments", "Courses"},
		Mode:     matview.Async,
		MaxStale: FeedMaxStale,
		Build:    func() (any, error) { return s.buildTopRatedFeed() },
	})
	return err
}

// buildTopRatedFeed computes the whole feed in one aggregation pass:
// average rating and rater count per course, grouped into departments,
// each department's list sorted best-first and truncated.
func (s *Site) buildTopRatedFeed() (map[string][]FeedEntry, error) {
	rows, err := s.SQL.QueryRows(`SELECT c.DepID, c.CourseID, c.Title, AVG(m.Rating), COUNT(m.Rating)
		FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID
		GROUP BY c.DepID, c.CourseID, c.Title`)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	out := map[string][]FeedEntry{}
	for rows.Next() {
		var dep, title string
		var cid, raters int64
		var avg any
		if err := rows.Scan(&dep, &cid, &title, &avg, &raters); err != nil {
			return nil, err
		}
		if raters == 0 {
			continue // a course whose comments carry no ratings
		}
		e := FeedEntry{CourseID: cid, Title: title, Raters: raters}
		switch x := avg.(type) {
		case float64:
			e.Avg = x
		case int64:
			e.Avg = float64(x)
		default:
			continue
		}
		out[dep] = append(out[dep], e)
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return rankFeed(out), nil
}

// rankFeed sorts each department's list best-first (average rating
// descending, course id as the tiebreak) and truncates to the per-
// department cap.
func rankFeed(out map[string][]FeedEntry) map[string][]FeedEntry {
	for dep, list := range out {
		sort.Slice(list, func(a, b int) bool {
			if list[a].Avg != list[b].Avg {
				return list[a].Avg > list[b].Avg
			}
			return list[a].CourseID < list[b].CourseID
		})
		if len(list) > feedTopPerDept {
			list = list[:feedTopPerDept]
		}
		out[dep] = list
	}
	return out
}

// TopRatedFeed returns one department's top-rated courses (at most k)
// from the materialized feed view. The serve report says whether the
// request hit a fresh snapshot, rode a bounded-stale one, or paid for
// the rebuild.
func (s *Site) TopRatedFeed(dep string, k int) ([]FeedEntry, matview.Serve, error) {
	v, ok := s.Views.View(FeedViewName)
	if !ok {
		return nil, matview.Serve{}, fmt.Errorf("core: feed view %q not registered", FeedViewName)
	}
	val, serve, err := v.Get()
	if err != nil {
		return nil, serve, err
	}
	list := val.(map[string][]FeedEntry)[dep]
	if k > 0 && len(list) > k {
		list = list[:k]
	}
	// The snapshot is shared and immutable; the truncation above only
	// re-slices, so handing the slice out is safe as long as callers
	// treat it as read-only (they do: it renders straight to JSON).
	return list, serve, nil
}
