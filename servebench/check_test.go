package main

import (
	"strconv"
	"strings"
	"testing"
)

func TestCheckSearchKnowsOnlyThePlantedCounts(t *testing.T) {
	u := testUniverse() // Themed 5, AfricanAm 2
	for _, c := range []struct {
		query, refine, body string
		ok                  bool
	}{
		{"american", "", `{"total":5,"hits":[{},{}]}`, true},
		{"american", "", `{"total":6,"hits":[]}`, false},
		{"american", "african american", `{"total":2,"hits":[{},{}]}`, true},
		{"american", "african american", `{"total":5,"hits":[]}`, false},
		{"american", "oceanography", `{"total":0,"hits":[]}`, true},
		{"alpha", "", `{"total":1,"hits":[{},{}]}`, false}, // more hits than results
		{"alpha", "", `{"total":40,"hits":[` + strings.Repeat(`{},`, 20) + `{}]}`, false},
	} {
		r := Request{Class: ClassSearch, Query: c.query, Refine: c.refine}
		res, err := check(r, 101, u, []byte(c.body))
		if (err == nil) != c.ok {
			t.Errorf("search %q refine %q body %s: err = %v, want ok %v", c.query, c.refine, c.body, err, c.ok)
		}
		if err == nil && !strings.Contains(c.body, `"total":`+strconv.Itoa(res.hits)) {
			t.Errorf("search %q: hits %d not the response total", c.query, res.hits)
		}
	}
}

func TestCheckRejectsMalformedPages(t *testing.T) {
	u := testUniverse()
	for _, c := range []struct {
		r    Request
		body string
		ok   bool
	}{
		{Request{Class: ClassFeed, Dep: "CS", K: 2}, `{"dep":"CS","entries":[{"avg":4.5},{"avg":4.0}]}`, true},
		{Request{Class: ClassFeed, Dep: "CS", K: 2}, `{"dep":"CS","entries":[{"avg":4.0},{"avg":4.5}]}`, false},
		{Request{Class: ClassFeed, Dep: "CS", K: 1}, `{"dep":"CS","entries":[{"avg":4.5},{"avg":4.0}]}`, false},
		{Request{Class: ClassRecommend, Strategy: "top-rated"}, `{"columns":["CourseID"],"rows":[["1"]]}`, true},
		{Request{Class: ClassRecommend, Strategy: "top-rated"}, `{"columns":["CourseID"],"rows":[]}`, false},
		{Request{Class: ClassRated}, `{"columns":["a","b"],"rows":[["1"]]}`, false},
		{Request{Class: ClassLeaderboard}, `[{"Points":9},{"Points":3}]`, true},
		{Request{Class: ClassLeaderboard}, `[{"Points":3},{"Points":9}]`, false},
		{Request{Class: ClassCourse, Course: 7}, `{"course":{"ID":7},"raters":0,"page":"x"}`, true},
		{Request{Class: ClassCourse, Course: 7}, `{"course":{"ID":8},"raters":0,"page":"x"}`, false},
		{Request{Class: ClassComment, Course: 7}, `{"commentId":0}`, false},
		{Request{Class: ClassRate, Course: 7}, `{"ok":false}`, false},
		{Request{Class: ClassPoints}, `not json`, false},
	} {
		if _, err := check(c.r, 101, u, []byte(c.body)); (err == nil) != c.ok {
			t.Errorf("%s %s: err = %v, want ok %v", c.r.Class, c.body, err, c.ok)
		}
	}
}

func TestCheckAcksWrites(t *testing.T) {
	u := testUniverse()
	res, err := check(Request{Class: ClassReview, Course: 7, Rating: 4}, 101, u, []byte(`{"commentId":12}`))
	if err != nil || res.ack == nil || *res.ack != (ack{class: ClassReview, commentID: 12, su: 101, course: 7, rating: 4}) {
		t.Fatalf("review ack = %+v, %v", res.ack, err)
	}
	res, err = check(Request{Class: ClassComment, Course: 7, Rating: 4}, 101, u, []byte(`{"commentId":13}`))
	if err != nil || res.ack == nil || res.ack.rating != 0 || res.ack.commentID != 13 {
		t.Fatalf("comment ack = %+v, %v", res.ack, err)
	}
	res, err = check(Request{Class: ClassRate, Course: 7, Rating: 2}, 101, u, []byte(`{"ok":true}`))
	if err != nil || res.ack == nil || res.ack.commentID != 0 || res.ack.rating != 2 {
		t.Fatalf("rate ack = %+v, %v", res.ack, err)
	}
}
