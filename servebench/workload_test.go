package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// testUniverse is a small universe in which student 101 has already
// evaluated every course but the last.
func testUniverse() *Universe {
	u := &Universe{
		Titles:    map[int64]string{},
		Deps:      []string{"CS", "EE"},
		Vocab:     []string{"alpha", "beta", "gamma", "delta"},
		WriteYear: 2010,
		Themed:    5,
		AfricanAm: 2,
		taken:     map[pair]bool{},
	}
	for i := 1; i <= 50; i++ {
		u.Students = append(u.Students, Student{ID: int64(100 + i), Username: fmt.Sprintf("stu%05d", i), Token: fmt.Sprintf("sess-%d", i)})
	}
	for c := int64(1); c <= 40; c++ {
		u.Courses = append(u.Courses, c)
		u.Titles[c] = fmt.Sprintf("Course %d", c)
		if c%2 == 0 {
			u.Offered = append(u.Offered, c)
		}
		if c < 40 {
			u.taken[pair{101, c}] = true
		}
	}
	return u
}

func stream(u *Universe, w Workload, seed int64, n int) []Request {
	g := NewGenerator(u, w, seed)
	out := make([]Request, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	u := testUniverse()
	for _, name := range sortedKeys(Workloads) {
		w := Workloads[name]
		a, b := stream(u, w, 7, 2000), stream(u, w, 7, 2000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if reflect.DeepEqual(a, stream(u, w, 8, 2000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
		seen := map[Class]bool{}
		for _, r := range a {
			seen[r.Class] = true
		}
		for _, s := range w.Mix {
			if !seen[s.Class] {
				t.Errorf("%s: 2000 requests drew no %s", name, s.Class)
			}
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	u := testUniverse()
	w := Workloads["browse"]
	a := poissonSchedule(NewGenerator(u, w, 3), 1000, 2e9, 11)
	b := poissonSchedule(NewGenerator(u, w, 3), 1000, 2e9, 11)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("the same seeds gave two different schedules")
	}
	if n := len(a.due); n < 1800 || n > 2200 {
		t.Fatalf("1000/s over 2s drew %d arrivals", n)
	}
	for i := 1; i < len(a.due); i++ {
		if a.due[i] < a.due[i-1] {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
	}
}

func TestWritesNeverRepeatOrCollide(t *testing.T) {
	u := testUniverse()
	used := map[pair]bool{}
	writes := 0
	for _, r := range stream(u, Workloads["review"], 1, 5000) {
		if !r.Class.Write() {
			continue
		}
		writes++
		if r.Year != u.WriteYear || r.Rating < 1 || r.Rating > 5 || r.Text == "" {
			t.Fatalf("write %+v has bad evaluation fields", r)
		}
		if r.Class == ClassComment {
			continue // comments have no key to collide on
		}
		p := pair{u.Students[r.Student].ID, r.Course}
		if u.taken[p] {
			t.Fatalf("write %+v hits a pair the seed data holds", r)
		}
		if used[p] {
			t.Fatalf("write %+v repeats pair %v", r, p)
		}
		used[p] = true
	}
	if writes < 1000 {
		t.Fatalf("only %d writes in 5000 review requests", writes)
	}
	if !used[pair{101, 40}] {
		t.Fatalf("student 101 never got the one course left to evaluate")
	}
}

func TestRequestPaths(t *testing.T) {
	for _, c := range []struct {
		r    Request
		want string
	}{
		{Request{Class: ClassCourse, Course: 17}, "/api/course/17"},
		{Request{Class: ClassFeed, Dep: "CS", K: 5}, "/api/feed/CS?k=5"},
		{Request{Class: ClassAdvise, Course: 3}, "/api/advise/quarters/3"},
		{Request{Class: ClassAdvise, Majors: true}, "/api/advise/majors"},
		{Request{Class: ClassSearch, Query: "american", Refine: "african american"}, "/api/search?q=american&refine=african+american"},
		{Request{Class: ClassRecommend, Strategy: "hybrid", Title: "Intro to X"}, "/api/recommend/hybrid?title=Intro+to+X"},
		{Request{Class: ClassRecommend, Strategy: "department-popular", Dep: "EE"}, "/api/recommend/department-popular?dep=EE"},
		{Request{Class: ClassRated}, "/api/recommend/rated-courses"},
	} {
		if got := c.r.Path(); got != c.want {
			t.Errorf("Path(%+v) = %q, want %q", c.r, got, c.want)
		}
		if c.r.Method() != "GET" || c.r.Body() != nil {
			t.Errorf("%s should be a GET without a body", c.want)
		}
	}
	r := Request{Class: ClassReview, Course: 9, Year: 2010, Term: "Winter", Rating: 4, Text: "fine"}
	if r.Method() != "POST" || r.Path() != "/api/review" || !strings.Contains(string(r.Body()), `"courseId":9`) {
		t.Errorf("review request renders as %s %s %s", r.Method(), r.Path(), r.Body())
	}
}
