// Package stats computes CourseRank's statistics features (Figure 2
// "Statistics"/"Eval"): grade distributions — both official registrar
// data and student self-reported grades — rating histograms, and the
// privacy controls of §2.2: distributions of very small classes are
// suppressed ("we do not show distributions for classes with very few
// students, since that may disclose information about individual
// students"), and official distributions are disclosed only for schools
// that agreed (in the paper, only the School of Engineering).
package stats

import (
	"fmt"
	"math"
	"sync"

	"courserank/internal/catalog"
	"courserank/internal/relation"
)

// MinClassSize is the k-anonymity threshold below which a grade
// distribution is suppressed.
const MinClassSize = 5

// Distribution is a histogram over letter grades.
type Distribution struct {
	Counts map[catalog.Grade]int
	Total  int
	// Suppressed marks distributions withheld for privacy.
	Suppressed bool
}

// Share returns the fraction of grades equal to g (0 when suppressed or
// empty).
func (d Distribution) Share(g catalog.Grade) float64 {
	if d.Suppressed || d.Total == 0 {
		return 0
	}
	return float64(d.Counts[g]) / float64(d.Total)
}

// Mean returns the grade-point mean of the distribution.
func (d Distribution) Mean() float64 {
	if d.Suppressed || d.Total == 0 {
		return 0
	}
	sum := 0.0
	n := 0
	for g, c := range d.Counts {
		if p, ok := g.Points(); ok {
			sum += p * float64(c)
			n += c
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TVDistance computes the total-variation distance between two
// distributions in [0,1] — the metric behind the paper's observation
// that "the official Engineering grade distributions seem to be very
// close to the corresponding self-reported ones".
func TVDistance(a, b Distribution) float64 {
	if a.Total == 0 || b.Total == 0 {
		return 1
	}
	sum := 0.0
	for _, g := range catalog.LetterGrades {
		sum += math.Abs(a.Share(g) - b.Share(g))
	}
	return sum / 2
}

// Service computes distributions from the official grades table and the
// planner's self-reported enrollments.
type Service struct {
	db  *relation.DB
	cat *catalog.Store

	mu sync.RWMutex
	// disclosingSchools lists schools whose official distributions may be
	// shown; per the paper only Engineering "bought our argument".
	disclosingSchools map[string]bool
}

// Setup creates the official-grades table and returns the service.
func Setup(db *relation.DB, cat *catalog.Store) (*Service, error) {
	official := relation.MustTable("OfficialGrades",
		relation.MustSchema(
			relation.NotNullCol("CourseID", relation.TypeInt),
			relation.NotNullCol("Year", relation.TypeInt),
			relation.NotNullCol("Grade", relation.TypeString),
			relation.NotNullCol("Count", relation.TypeInt),
		), relation.WithIndex("CourseID"))
	if _, err := db.Ensure(official); err != nil {
		return nil, err
	}
	return &Service{db: db, cat: cat, disclosingSchools: map[string]bool{"Engineering": true}}, nil
}

// Open wraps a database whose stats tables already exist.
func Open(db *relation.DB, cat *catalog.Store) *Service {
	return &Service{db: db, cat: cat, disclosingSchools: map[string]bool{"Engineering": true}}
}

// SetDisclosure records whether a school permits showing official
// distributions (the per-school negotiation of §2.2).
func (s *Service) SetDisclosure(school string, allowed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if allowed {
		s.disclosingSchools[school] = true
	} else {
		delete(s.disclosingSchools, school)
	}
}

// Discloses reports whether a school's official distributions may be
// shown.
func (s *Service) Discloses(school string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.disclosingSchools[school]
}

// LoadOfficial records one official grade-count row.
func (s *Service) LoadOfficial(courseID, year int64, grade catalog.Grade, count int) error {
	if !grade.Valid() {
		return fmt.Errorf("stats: unknown grade %q", grade)
	}
	if count < 0 {
		return fmt.Errorf("stats: negative count")
	}
	_, err := s.db.MustTable("OfficialGrades").Insert(relation.Row{courseID, year, string(grade), int64(count)})
	return err
}

// courseSchool resolves the school a course belongs to.
func (s *Service) courseSchool(courseID int64) string {
	c, ok := s.cat.Course(courseID)
	if !ok {
		return ""
	}
	d, ok := s.cat.Department(c.DepID)
	if !ok {
		return ""
	}
	return d.School
}

// OfficialDistribution returns a course's official grade distribution,
// applying both privacy rules: school disclosure and the k-anonymity
// floor. The returned Suppressed flag tells the UI to hide the chart
// but the Total lets it say "n students".
func (s *Service) OfficialDistribution(courseID int64) Distribution {
	d := Distribution{Counts: map[catalog.Grade]int{}}
	for _, r := range s.db.MustTable("OfficialGrades").Lookup("CourseID", courseID) {
		g := catalog.Grade(r[2].(string))
		n := int(r[3].(int64))
		d.Counts[g] += n
		d.Total += n
	}
	if d.Total < MinClassSize || !s.Discloses(s.courseSchool(courseID)) {
		d.Suppressed = true
	}
	return d
}

// SelfReportedDistribution aggregates students' self-reported grades for
// a course from the planner's enrollment data, applying the k-anonymity
// floor (self-reported data has no school gate: students volunteered it).
func (s *Service) SelfReportedDistribution(courseID int64) Distribution {
	d := Distribution{Counts: map[catalog.Grade]int{}}
	enroll, ok := s.db.Table("Enrollments")
	if !ok {
		d.Suppressed = true
		return d
	}
	for _, r := range enroll.Lookup("CourseID", courseID) {
		if r[5].(bool) || r[4] == nil { // planned or ungraded
			continue
		}
		g := catalog.Grade(r[4].(string))
		if !g.Valid() {
			continue
		}
		d.Counts[g]++
		d.Total++
	}
	if d.Total < MinClassSize {
		d.Suppressed = true
	}
	return d
}

// Divergence compares official and self-reported distributions for a
// course, returning the TV distance and whether both sides had enough
// data to compare. Suppression is bypassed internally — the comparison
// is an aggregate research result, not a per-student disclosure.
func (s *Service) Divergence(courseID int64) (float64, bool) {
	off := s.rawOfficial(courseID)
	self := s.SelfReportedDistribution(courseID)
	self.Suppressed = false
	if off.Total < MinClassSize || self.Total < MinClassSize {
		return 0, false
	}
	return TVDistance(off, self), true
}

func (s *Service) rawOfficial(courseID int64) Distribution {
	d := Distribution{Counts: map[catalog.Grade]int{}}
	for _, r := range s.db.MustTable("OfficialGrades").Lookup("CourseID", courseID) {
		g := catalog.Grade(r[2].(string))
		n := int(r[3].(int64))
		d.Counts[g] += n
		d.Total += n
	}
	return d
}

// Comparison is the faculty-facing view §2 describes: "faculty ... can
// see how their class compares to other classes" — the course's mean
// rating and its percentile within the department and the whole catalog.
type Comparison struct {
	CourseID       int64
	AvgRating      float64
	Raters         int
	DeptRank       int // 1 = best in department
	DeptSize       int // department courses with ratings
	DeptPercentile float64
	AllPercentile  float64
}

// CompareCourse computes the comparison for one course from standalone
// ratings. Courses without ratings rank nowhere (ok = false).
func (s *Service) CompareCourse(courseID int64) (Comparison, bool) {
	ratings, ok := s.db.Table("Ratings")
	if !ok {
		return Comparison{}, false
	}
	course, ok := s.cat.Course(courseID)
	if !ok {
		return Comparison{}, false
	}
	sch := ratings.Schema()
	ci, ri := sch.MustIndex("CourseID"), sch.MustIndex("Rating")
	sums := map[int64]float64{}
	counts := map[int64]int{}
	ratings.Scan(func(_ int, r relation.Row) bool {
		id := r[ci].(int64)
		sums[id] += r[ri].(float64)
		counts[id]++
		return true
	})
	n, ok := counts[courseID]
	if !ok || n == 0 {
		return Comparison{}, false
	}
	mine := sums[courseID] / float64(n)
	cmp := Comparison{CourseID: courseID, AvgRating: mine, Raters: n}
	deptBetter, allBetter, allTotal := 0, 0, 0
	for id, c := range counts {
		if c == 0 {
			continue
		}
		avg := sums[id] / float64(c)
		allTotal++
		if avg > mine {
			allBetter++
		}
		other, ok := s.cat.Course(id)
		if !ok || other.DepID != course.DepID {
			continue
		}
		cmp.DeptSize++
		if avg > mine {
			deptBetter++
		}
	}
	cmp.DeptRank = deptBetter + 1
	if cmp.DeptSize > 0 {
		cmp.DeptPercentile = 100 * float64(cmp.DeptSize-deptBetter) / float64(cmp.DeptSize)
	}
	if allTotal > 0 {
		cmp.AllPercentile = 100 * float64(allTotal-allBetter) / float64(allTotal)
	}
	return cmp, true
}

// RatingHistogram buckets a course's standalone ratings 1..5.
func (s *Service) RatingHistogram(courseID int64) [5]int {
	var h [5]int
	ratings, ok := s.db.Table("Ratings")
	if !ok {
		return h
	}
	for _, r := range ratings.Lookup("CourseID", courseID) {
		v := int(math.Round(r[2].(float64)))
		if v >= 1 && v <= 5 {
			h[v-1]++
		}
	}
	return h
}
