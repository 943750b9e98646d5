package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
)

// Class names one kind of request; per-class latencies are reported
// under server.<class>.
type Class string

const (
	ClassCourse      Class = "course"
	ClassFeed        Class = "feed"
	ClassPlan        Class = "plan"
	ClassPoints      Class = "points"
	ClassLeaderboard Class = "leaderboard"
	ClassRated       Class = "rated"
	ClassAdvise      Class = "advise"
	ClassSearch      Class = "search"
	ClassRecommend   Class = "recommend"
	ClassReview      Class = "review"
	ClassRate        Class = "rate"
	ClassComment     Class = "comment"
)

// Classes lists every request class in report order.
var Classes = []Class{
	ClassCourse, ClassFeed, ClassPlan, ClassPoints, ClassLeaderboard, ClassRated,
	ClassAdvise, ClassSearch, ClassRecommend, ClassReview, ClassRate, ClassComment,
}

// Write reports whether the class changes the site's data.
func (c Class) Write() bool { return c == ClassReview || c == ClassRate || c == ClassComment }

// Workload is one named traffic mix plus the open-loop arrival rate it
// is measured at.
type Workload struct {
	Name    string
	Durable bool    // serve from a WAL-backed site instead of an in-memory one
	Rate    float64 // open-loop arrivals per second
	Mix     []Share
}

// Share is one class's weight in a mix.
type Share struct {
	Class  Class
	Weight int
}

// Workloads are the benchmark's traffic mixes; README.md says why each
// exists. No measurement of CourseRank's traffic gives the share of
// each class, so the weights are the plainest choice: equal over the
// classes a mix lists. Review weighs its reads 3 and its writes 2, which
// makes a third of its requests writes. Rates are between a quarter
// and a third of the closed-loop capacity measured with two clients on
// two cores.
var Workloads = map[string]Workload{
	"browse": {Name: "browse", Rate: 800, Mix: []Share{
		{ClassCourse, 1}, {ClassFeed, 1}, {ClassPlan, 1}, {ClassPoints, 1},
		{ClassLeaderboard, 1}, {ClassRated, 1}, {ClassAdvise, 1},
	}},
	"discover": {Name: "discover", Rate: 45, Mix: []Share{
		{ClassSearch, 1}, {ClassRecommend, 1},
	}},
	"review": {Name: "review", Durable: true, Rate: 250, Mix: []Share{
		{ClassCourse, 3}, {ClassFeed, 3}, {ClassPoints, 3}, {ClassLeaderboard, 3},
		{ClassReview, 2}, {ClassRate, 2}, {ClassComment, 2},
	}},
}

// discoverStrategies are the FlexRecs strategies the discover mix
// requests, in draw order.
var discoverStrategies = []string{"related-courses", "cf-courses", "department-popular", "top-rated", "hybrid"}

// Request is one generated request: the class plus every parameter the
// HTTP path and the direct replay need.
type Request struct {
	Class    Class
	Student  int    // index into Universe.Students
	Course   int64  // course id (course, advise quarters, writes)
	Dep      string // feed, department-popular
	K        int    // feed length
	Strategy string // recommend
	Title    string // related-courses, hybrid
	Query    string // search
	Refine   string // search refinement, "" for none
	Majors   bool   // advise: majors instead of quarters
	Year     int64  // writes
	Term     string // writes
	Rating   float64
	Text     string
}

// Method is the HTTP method of the request.
func (r Request) Method() string {
	if r.Class.Write() {
		return "POST"
	}
	return "GET"
}

// Path is the request's URL path and query, as the server routes it.
func (r Request) Path() string {
	switch r.Class {
	case ClassCourse:
		return "/api/course/" + strconv.FormatInt(r.Course, 10)
	case ClassFeed:
		return "/api/feed/" + url.PathEscape(r.Dep) + "?k=" + strconv.Itoa(r.K)
	case ClassPlan:
		return "/api/plan"
	case ClassPoints:
		return "/api/points"
	case ClassLeaderboard:
		return "/api/leaderboard"
	case ClassRated:
		return "/api/recommend/rated-courses"
	case ClassAdvise:
		if r.Majors {
			return "/api/advise/majors"
		}
		return "/api/advise/quarters/" + strconv.FormatInt(r.Course, 10)
	case ClassSearch:
		q := url.Values{"q": {r.Query}}
		if r.Refine != "" {
			q.Set("refine", r.Refine)
		}
		return "/api/search?" + q.Encode()
	case ClassRecommend:
		return "/api/recommend/" + r.Strategy + "?" + r.strategyParams().Encode()
	case ClassReview:
		return "/api/review"
	case ClassRate:
		return "/api/rate"
	case ClassComment:
		return "/api/comment"
	}
	panic("servebench: unknown class " + string(r.Class))
}

// strategyParams are the query parameters of a recommend request; the
// server adds the session's student itself.
func (r Request) strategyParams() url.Values {
	q := url.Values{}
	switch r.Strategy {
	case "related-courses", "hybrid":
		q.Set("title", r.Title)
	case "department-popular":
		q.Set("dep", r.Dep)
	}
	return q
}

// Body is the JSON body of a write, nil for reads.
func (r Request) Body() []byte {
	var v any
	switch r.Class {
	case ClassReview:
		v = map[string]any{"courseId": r.Course, "year": r.Year, "term": r.Term,
			"text": r.Text, "rating": r.Rating}
	case ClassRate:
		v = map[string]any{"courseId": r.Course, "rating": r.Rating}
	case ClassComment:
		v = map[string]any{"courseId": r.Course, "year": r.Year, "term": r.Term,
			"text": r.Text, "rating": r.Rating}
	default:
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of scalars always marshal
	}
	return b
}

// Student is one registered student the generator may act as.
type Student struct {
	ID       int64
	Username string
	Token    string
}

// Universe is everything the generator draws from, read from the
// generated deployment before timing starts. Every list is in a fixed
// order, independent of the workload seed, and the skewed draws take
// their heads as the popular entries.
type Universe struct {
	Students  []Student // students with at least one rated comment, by id
	Courses   []int64   // every course id, ascending
	Titles    map[int64]string
	Offered   []int64  // courses with offerings, ascending
	Deps      []string // departments with rated courses, sorted
	Vocab     []string // title terms, most frequent first
	WriteYear int64    // a year outside the generated data's years
	Themed    int      // expected hits for "american"
	AfricanAm int      // expected hits for "american" refined by "african american"
	taken     map[pair]bool
}

// pair is a (student, course) combination.
type pair struct{ su, course int64 }

// Terms in which generated writes take place.
var writeTerms = []string{"Autumn", "Winter", "Spring"}

// Generator produces a workload's request stream from a seed. The same
// universe, workload and seed always give the same stream. Writes never
// repeat a (student, course) pair among themselves or with the seed
// data, so no write can fail on a duplicate enrollment or race another
// write to the same key.
type Generator struct {
	u       *Universe
	w       Workload
	rng     *rand.Rand
	student *rand.Zipf
	course  *rand.Zipf
	offered *rand.Zipf
	dep     *rand.Zipf
	vocab   *rand.Zipf
	used    map[pair]bool
	deck    []Class
	n       int
}

// Skew of every popularity draw: rank r is drawn with weight
// (zipfV + r)^-zipfS, so attention concentrates on the head of each list
// as it does on social sites. The Digg study in PAPERS.md reports the
// skew without an exponent; these values are an assumption, a
// heavy-tailed law just steeper than 1/r.
const (
	zipfS = 1.1
	zipfV = 2
)

// NewGenerator seeds a generator for one workload.
func NewGenerator(u *Universe, w Workload, seed int64) *Generator {
	rng := rand.New(rand.NewSource(seed))
	zipf := func(n int) *rand.Zipf {
		if n < 2 {
			n = 2
		}
		return rand.NewZipf(rng, zipfS, zipfV, uint64(n-1))
	}
	g := &Generator{
		u: u, w: w, rng: rng,
		student: zipf(len(u.Students)),
		course:  zipf(len(u.Courses)),
		offered: zipf(len(u.Offered)),
		dep:     zipf(len(u.Deps)),
		vocab:   zipf(len(u.Vocab)),
		used:    map[pair]bool{},
	}
	return g
}

func pick[T any](list []T, z *rand.Zipf) T { return list[int(z.Uint64())%len(list)] }

// Next returns the next request of the stream.
func (g *Generator) Next() Request {
	g.n++
	if len(g.deck) == 0 {
		// Classes come from a shuffled deck holding each class eight
		// times its weight, so every few dozen requests have the mix's
		// exact proportions and only their order is random.
		for _, s := range g.w.Mix {
			for i := 0; i < 8*s.Weight; i++ {
				g.deck = append(g.deck, s.Class)
			}
		}
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	class := g.deck[len(g.deck)-1]
	g.deck = g.deck[:len(g.deck)-1]
	r := Request{Class: class, Student: int(g.student.Uint64()) % len(g.u.Students)}
	switch class {
	case ClassCourse:
		r.Course = pick(g.u.Courses, g.course)
	case ClassFeed:
		r.Dep = pick(g.u.Deps, g.dep)
		r.K = []int{5, 10, 20}[g.rng.Intn(3)]
	case ClassAdvise:
		r.Majors = g.rng.Intn(2) == 0
		r.Course = pick(g.u.Offered, g.offered)
	case ClassSearch:
		// Half the searches are refined. One in eight is the paper's
		// Figure 3/4 query, whose result counts the generator planted
		// and the check knows exactly; that share is an assumption, set
		// so the exact check runs dozens of times a run.
		refined := g.rng.Intn(2) == 0
		if g.rng.Intn(8) == 0 {
			r.Query = "american"
			if refined {
				r.Refine = "african american"
			}
		} else {
			r.Query = pick(g.u.Vocab, g.vocab)
			if refined {
				r.Refine = pick(g.u.Vocab, g.vocab)
			}
		}
	case ClassRecommend:
		r.Strategy = discoverStrategies[g.rng.Intn(len(discoverStrategies))]
		r.Title = g.u.Titles[pick(g.u.Courses, g.course)]
		r.Dep = pick(g.u.Deps, g.dep)
	case ClassReview, ClassRate:
		// A student who has evaluated every course hands the write to
		// the next student.
		for ok := false; !ok; r.Student = (r.Student + 1) % len(g.u.Students) {
			if r.Course, ok = g.freshCourse(r.Student); ok {
				break
			}
		}
		g.fillWrite(&r)
	case ClassComment:
		r.Course = pick(g.u.Courses, g.course)
		g.fillWrite(&r)
	}
	return r
}

// fillWrite sets the evaluation fields of a write.
func (g *Generator) fillWrite(r *Request) {
	r.Year = g.u.WriteYear
	r.Term = writeTerms[g.rng.Intn(len(writeTerms))]
	r.Rating = float64(1 + g.rng.Intn(5))
	r.Text = fmt.Sprintf("benchmark evaluation %d: %s", g.n, g.u.Vocab[g.rng.Intn(len(g.u.Vocab))])
}

// freshCourse draws a course the student has neither taken nor rated,
// in the seed data or earlier in this stream, and reserves the pair. It
// reports false when the student has no such course left.
func (g *Generator) freshCourse(student int) (int64, bool) {
	su := g.u.Students[student].ID
	free := func(c int64) bool {
		p := pair{su, c}
		if g.u.taken[p] || g.used[p] {
			return false
		}
		g.used[p] = true
		return true
	}
	for try := 0; try < 64; try++ {
		c := pick(g.u.Courses, g.course)
		if try >= 32 {
			c = g.u.Courses[g.rng.Intn(len(g.u.Courses))]
		}
		if free(c) {
			return c, true
		}
	}
	start := g.rng.Intn(len(g.u.Courses))
	for i := range g.u.Courses {
		if c := g.u.Courses[(start+i)%len(g.u.Courses)]; free(c) {
			return c, true
		}
	}
	return 0, false
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[K int64 | string, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
