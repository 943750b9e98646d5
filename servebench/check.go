package main

import (
	"encoding/json"
	"fmt"
)

// ack is what a successful write acknowledged: the comment id it
// returned and, for reviews and ratings, the rating stored for the
// (student, course) pair. The review workload's reopen check looks
// every ack up again.
type ack struct {
	class     Class
	commentID int64
	su        int64
	course    int64
	rating    float64
}

// checked is a response that passed its class's correctness check.
type checked struct {
	ack  *ack // writes only
	hits int  // search only: total results
}

// check decodes one 200 response and applies its class's correctness
// check. su is the requesting student's user id.
func check(r Request, su int64, u *Universe, body []byte) (checked, error) {
	switch r.Class {
	case ClassCourse:
		var v struct {
			Course struct{ ID int64 } `json:"course"`
			Raters *int               `json:"raters"`
			Page   string             `json:"page"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return checked{}, err
		}
		if v.Course.ID != r.Course || v.Page == "" || v.Raters == nil || *v.Raters < 0 {
			return checked{}, fmt.Errorf("course page for %d: got course %d, %d page bytes", r.Course, v.Course.ID, len(v.Page))
		}
	case ClassFeed:
		var v struct {
			Dep     string `json:"dep"`
			Entries []struct {
				Avg float64 `json:"avg"`
			} `json:"entries"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return checked{}, err
		}
		if v.Dep != r.Dep || len(v.Entries) == 0 || len(v.Entries) > r.K {
			return checked{}, fmt.Errorf("feed %s: %d entries for k=%d", r.Dep, len(v.Entries), r.K)
		}
		for i := 1; i < len(v.Entries); i++ {
			if v.Entries[i].Avg > v.Entries[i-1].Avg {
				return checked{}, fmt.Errorf("feed %s: entry %d out of rating order", r.Dep, i)
			}
		}
	case ClassPlan:
		var v struct {
			Plan *json.RawMessage `json:"plan"`
			Page string           `json:"page"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return checked{}, err
		}
		if v.Plan == nil || v.Page == "" {
			return checked{}, fmt.Errorf("plan: missing plan or page")
		}
	case ClassPoints:
		var v struct {
			Points int               `json:"points"`
			Ledger []json.RawMessage `json:"ledger"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return checked{}, err
		}
		// Every drawable student logged in, which earns a point.
		if v.Points < 1 || len(v.Ledger) == 0 {
			return checked{}, fmt.Errorf("points: %d points, %d ledger entries", v.Points, len(v.Ledger))
		}
	case ClassLeaderboard:
		var v []struct{ Points int }
		if err := json.Unmarshal(body, &v); err != nil {
			return checked{}, err
		}
		if len(v) == 0 || len(v) > 10 {
			return checked{}, fmt.Errorf("leaderboard: %d entries", len(v))
		}
		for i := 1; i < len(v); i++ {
			if v[i].Points > v[i-1].Points {
				return checked{}, fmt.Errorf("leaderboard: entry %d out of order", i)
			}
		}
	case ClassRated, ClassRecommend:
		var v struct {
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return checked{}, err
		}
		if len(v.Columns) == 0 || len(v.Rows) == 0 {
			return checked{}, fmt.Errorf("recommend %s: %d columns, %d rows", r.Path(), len(v.Columns), len(v.Rows))
		}
		for i, row := range v.Rows {
			if len(row) != len(v.Columns) {
				return checked{}, fmt.Errorf("recommend %s: row %d has %d cells for %d columns", r.Path(), i, len(row), len(v.Columns))
			}
		}
	case ClassAdvise:
		var v []json.RawMessage
		if err := json.Unmarshal(body, &v); err != nil {
			return checked{}, err
		}
		if !r.Majors && len(v) == 0 {
			return checked{}, fmt.Errorf("advise quarters %d: no quarters for an offered course", r.Course)
		}
	case ClassSearch:
		var v struct {
			Total int               `json:"total"`
			Hits  []json.RawMessage `json:"hits"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return checked{}, err
		}
		want := -1 // unknown: only the planted theme counts are checked
		switch {
		case r.Query == "american" && r.Refine == "":
			want = u.Themed
		case r.Query == "american" && r.Refine == "african american":
			want = u.AfricanAm
		}
		if (want >= 0 && v.Total != want) || len(v.Hits) > 20 || len(v.Hits) > v.Total {
			return checked{}, fmt.Errorf("search %q refine %q: total %d (want %d), %d hits", r.Query, r.Refine, v.Total, want, len(v.Hits))
		}
		return checked{hits: v.Total}, nil
	case ClassReview, ClassComment:
		var v struct {
			CommentID int64 `json:"commentId"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return checked{}, err
		}
		if v.CommentID <= 0 {
			return checked{}, fmt.Errorf("%s: comment id %d", r.Class, v.CommentID)
		}
		a := &ack{class: r.Class, commentID: v.CommentID, su: su, course: r.Course}
		if r.Class == ClassReview {
			a.rating = r.Rating
		}
		return checked{ack: a}, nil
	case ClassRate:
		var v struct {
			OK bool `json:"ok"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return checked{}, err
		}
		if !v.OK {
			return checked{}, fmt.Errorf("rate: not ok")
		}
		return checked{ack: &ack{class: r.Class, su: su, course: r.Course, rating: r.Rating}}, nil
	}
	return checked{}, nil
}
