// Package catalog models CourseRank's official university data (§2.1
// "Hybrid system"): departments, courses, offerings with meeting times,
// instructors, prerequisites, and volunteer-reported textbooks. This is
// the "official" half of the hybrid; user-contributed data lives in the
// comments, community and planner packages.
package catalog

import (
	"fmt"
	"strings"

	"courserank/internal/relation"
)

// Term is an academic quarter.
type Term string

// The four Stanford quarters in academic-year order.
const (
	Autumn Term = "Autumn"
	Winter Term = "Winter"
	Spring Term = "Spring"
	Summer Term = "Summer"
)

// Terms lists the quarters in academic-year order.
var Terms = []Term{Autumn, Winter, Spring, Summer}

// TermIndex returns the position of a term within the academic year,
// or -1 for an unknown term.
func TermIndex(t Term) int {
	for i, x := range Terms {
		if x == t {
			return i
		}
	}
	return -1
}

// Grade is a letter grade.
type Grade string

// gradePoints maps letter grades to grade points on Stanford's 4.3 scale.
var gradePoints = map[Grade]float64{
	"A+": 4.3, "A": 4.0, "A-": 3.7,
	"B+": 3.3, "B": 3.0, "B-": 2.7,
	"C+": 2.3, "C": 2.0, "C-": 1.7,
	"D+": 1.3, "D": 1.0, "D-": 0.7,
	"F": 0.0,
}

// LetterGrades lists grades from best to worst.
var LetterGrades = []Grade{"A+", "A", "A-", "B+", "B", "B-", "C+", "C", "C-", "D+", "D", "D-", "F"}

// Points returns the grade-point value and whether the grade counts
// toward a GPA (pass/fail and blank grades do not).
func (g Grade) Points() (float64, bool) {
	p, ok := gradePoints[g]
	return p, ok
}

// Valid reports whether g is a recognized letter grade.
func (g Grade) Valid() bool {
	_, ok := gradePoints[g]
	return ok
}

// Department is one academic department.
type Department struct {
	ID     string // e.g. "CS"
	Name   string // e.g. "Computer Science"
	School string // e.g. "Engineering"
}

// Course is one catalog course (identity is stable across offerings).
type Course struct {
	ID          int64
	DepID       string
	Number      string // e.g. "106A"
	Title       string
	Description string
	Units       int64
}

// Code renders the catalog code, e.g. "CS106A".
func (c Course) Code() string { return c.DepID + c.Number }

// Offering is one scheduled instance of a course in a quarter, with its
// weekly meeting pattern. Times are minutes from midnight.
type Offering struct {
	ID           int64
	CourseID     int64
	Year         int64
	Term         Term
	Days         string // subset of "MTWRF"
	StartMin     int64
	EndMin       int64
	InstructorID int64
}

// Overlaps reports whether two offerings meet at the same time in the
// same quarter: same year and term, at least one shared day, and
// overlapping time ranges.
func (o Offering) Overlaps(p Offering) bool {
	if o.Year != p.Year || o.Term != p.Term {
		return false
	}
	shared := false
	for _, d := range o.Days {
		if strings.ContainsRune(p.Days, d) {
			shared = true
			break
		}
	}
	if !shared {
		return false
	}
	return o.StartMin < p.EndMin && p.StartMin < o.EndMin
}

// Instructor is a faculty member who teaches offerings.
type Instructor struct {
	ID    int64
	Name  string
	DepID string
}

// Textbook is a course textbook. ReportedBy records the volunteer
// student who reported it (0 for official imports) — the paper's
// bookstore anecdote: the official list was withheld, so CourseRank
// built a volunteer reporting system instead (§2.2).
type Textbook struct {
	ID         int64
	CourseID   int64
	Title      string
	Author     string
	ReportedBy int64
}

// Store provides typed access to the catalog tables inside a
// relation.DB.
type Store struct {
	db *relation.DB
}

// Setup creates the catalog tables in db and returns a store.
func Setup(db *relation.DB) (*Store, error) {
	tables := []*relation.Table{
		relation.MustTable("Departments",
			relation.MustSchema(
				relation.NotNullCol("DepID", relation.TypeString),
				relation.NotNullCol("Name", relation.TypeString),
				relation.NotNullCol("School", relation.TypeString),
			), relation.WithPrimaryKey("DepID")),
		relation.MustTable("Courses",
			relation.MustSchema(
				relation.NotNullCol("CourseID", relation.TypeInt),
				relation.NotNullCol("DepID", relation.TypeString),
				relation.NotNullCol("Number", relation.TypeString),
				relation.NotNullCol("Title", relation.TypeString),
				relation.Col("Description", relation.TypeString),
				relation.NotNullCol("Units", relation.TypeInt),
			), relation.WithPrimaryKey("CourseID"), relation.WithAutoIncrement("CourseID"), relation.WithIndex("DepID"),
			// Title is the equality key of the FlexRecs "related-courses"
			// reference query; the index makes it a planner probe.
			relation.WithIndex("Title")),
		relation.MustTable("Offerings",
			relation.MustSchema(
				relation.NotNullCol("OfferingID", relation.TypeInt),
				relation.NotNullCol("CourseID", relation.TypeInt),
				relation.NotNullCol("Year", relation.TypeInt),
				relation.NotNullCol("Term", relation.TypeString),
				relation.NotNullCol("Days", relation.TypeString),
				relation.NotNullCol("StartMin", relation.TypeInt),
				relation.NotNullCol("EndMin", relation.TypeInt),
				relation.Col("InstructorID", relation.TypeInt),
			), relation.WithPrimaryKey("OfferingID"), relation.WithAutoIncrement("OfferingID"), relation.WithIndex("CourseID"),
			// "Year >= 2008"-style schedule scopes ride the ordered
			// index as planner range scans instead of full scans.
			relation.WithOrderedIndex("Year")),
		relation.MustTable("Instructors",
			relation.MustSchema(
				relation.NotNullCol("InstructorID", relation.TypeInt),
				relation.NotNullCol("Name", relation.TypeString),
				relation.NotNullCol("DepID", relation.TypeString),
			), relation.WithPrimaryKey("InstructorID"), relation.WithAutoIncrement("InstructorID"), relation.WithIndex("DepID")),
		relation.MustTable("Prereqs",
			relation.MustSchema(
				relation.NotNullCol("CourseID", relation.TypeInt),
				relation.NotNullCol("RequiresID", relation.TypeInt),
			), relation.WithIndex("CourseID")),
		relation.MustTable("Textbooks",
			relation.MustSchema(
				relation.NotNullCol("BookID", relation.TypeInt),
				relation.NotNullCol("CourseID", relation.TypeInt),
				relation.NotNullCol("Title", relation.TypeString),
				relation.Col("Author", relation.TypeString),
				relation.Col("ReportedBy", relation.TypeInt),
			), relation.WithPrimaryKey("BookID"), relation.WithAutoIncrement("BookID"), relation.WithIndex("CourseID")),
	}
	for _, t := range tables {
		if _, err := db.Ensure(t); err != nil {
			return nil, err
		}
	}
	return &Store{db: db}, nil
}

// Open wraps an existing database whose catalog tables were already
// created by Setup.
func Open(db *relation.DB) *Store { return &Store{db: db} }

// DB returns the underlying database.
func (s *Store) DB() *relation.DB { return s.db }

// AddDepartment inserts a department.
func (s *Store) AddDepartment(d Department) error {
	if d.ID == "" {
		return fmt.Errorf("catalog: department needs an id")
	}
	_, err := s.db.MustTable("Departments").Insert(relation.Row{d.ID, d.Name, d.School})
	return err
}

// Department fetches a department by id.
func (s *Store) Department(id string) (Department, bool) {
	row, ok := s.db.MustTable("Departments").Get(id)
	if !ok {
		return Department{}, false
	}
	return Department{ID: row[0].(string), Name: row[1].(string), School: row[2].(string)}, true
}

// Departments returns all departments.
func (s *Store) Departments() []Department {
	var out []Department
	s.db.MustTable("Departments").Scan(func(_ int, r relation.Row) bool {
		out = append(out, Department{ID: r[0].(string), Name: r[1].(string), School: r[2].(string)})
		return true
	})
	return out
}

// AddCourse inserts a course; a zero ID auto-assigns, and the assigned
// id is returned.
func (s *Store) AddCourse(c Course) (int64, error) {
	if c.Units <= 0 {
		return 0, fmt.Errorf("catalog: course %q needs positive units", c.Title)
	}
	if _, ok := s.Department(c.DepID); !ok {
		return 0, fmt.Errorf("catalog: unknown department %q", c.DepID)
	}
	var id relation.Value
	if c.ID != 0 {
		id = c.ID
	}
	r, err := s.db.MustTable("Courses").InsertGet(relation.Row{id, c.DepID, c.Number, c.Title, c.Description, c.Units})
	if err != nil {
		return 0, err
	}
	return r[0].(int64), nil
}

func courseFromRow(r relation.Row) Course {
	desc := ""
	if r[4] != nil {
		desc = r[4].(string)
	}
	return Course{
		ID: r[0].(int64), DepID: r[1].(string), Number: r[2].(string),
		Title: r[3].(string), Description: desc, Units: r[5].(int64),
	}
}

// Course fetches a course by id. The row reference is safe without a
// clone: courseFromRow copies every field out before the lock drops.
func (s *Store) Course(id int64) (Course, bool) {
	row, ok := s.db.MustTable("Courses").GetRef(id)
	if !ok {
		return Course{}, false
	}
	return courseFromRow(row), true
}

// CoursesByDept returns the department's courses.
func (s *Store) CoursesByDept(depID string) []Course {
	rows := s.db.MustTable("Courses").Lookup("DepID", depID)
	out := make([]Course, len(rows))
	for i, r := range rows {
		out[i] = courseFromRow(r)
	}
	return out
}

// EachCourse streams every course; fn returning false stops.
func (s *Store) EachCourse(fn func(Course) bool) {
	s.db.MustTable("Courses").Scan(func(_ int, r relation.Row) bool {
		return fn(courseFromRow(r))
	})
}

// CourseCount returns the catalog size — the paper's "18,605 courses".
func (s *Store) CourseCount() int { return s.db.MustTable("Courses").Len() }

// AddOffering schedules an offering and returns its id.
func (s *Store) AddOffering(o Offering) (int64, error) {
	if _, ok := s.Course(o.CourseID); !ok {
		return 0, fmt.Errorf("catalog: unknown course %d", o.CourseID)
	}
	if TermIndex(o.Term) < 0 {
		return 0, fmt.Errorf("catalog: unknown term %q", o.Term)
	}
	if o.EndMin <= o.StartMin {
		return 0, fmt.Errorf("catalog: offering must end after it starts")
	}
	for _, d := range o.Days {
		if !strings.ContainsRune("MTWRF", d) {
			return 0, fmt.Errorf("catalog: bad meeting day %q", string(d))
		}
	}
	var id relation.Value
	if o.ID != 0 {
		id = o.ID
	}
	var inst relation.Value
	if o.InstructorID != 0 {
		inst = o.InstructorID
	}
	r, err := s.db.MustTable("Offerings").InsertGet(relation.Row{id, o.CourseID, o.Year, string(o.Term), o.Days, o.StartMin, o.EndMin, inst})
	if err != nil {
		return 0, err
	}
	return r[0].(int64), nil
}

func offeringFromRow(r relation.Row) Offering {
	var inst int64
	if r[7] != nil {
		inst = r[7].(int64)
	}
	return Offering{
		ID: r[0].(int64), CourseID: r[1].(int64), Year: r[2].(int64),
		Term: Term(r[3].(string)), Days: r[4].(string),
		StartMin: r[5].(int64), EndMin: r[6].(int64), InstructorID: inst,
	}
}

// Offerings returns a course's offerings.
func (s *Store) Offerings(courseID int64) []Offering {
	rows := s.db.MustTable("Offerings").Lookup("CourseID", courseID)
	out := make([]Offering, len(rows))
	for i, r := range rows {
		out[i] = offeringFromRow(r)
	}
	return out
}

// OfferingsIn returns all offerings in a given quarter.
func (s *Store) OfferingsIn(year int64, term Term) []Offering {
	var out []Offering
	s.db.MustTable("Offerings").Scan(func(_ int, r relation.Row) bool {
		o := offeringFromRow(r)
		if o.Year == year && o.Term == term {
			out = append(out, o)
		}
		return true
	})
	return out
}

// AddInstructor inserts an instructor and returns the id.
func (s *Store) AddInstructor(in Instructor) (int64, error) {
	var id relation.Value
	if in.ID != 0 {
		id = in.ID
	}
	r, err := s.db.MustTable("Instructors").InsertGet(relation.Row{id, in.Name, in.DepID})
	if err != nil {
		return 0, err
	}
	return r[0].(int64), nil
}

// Instructor fetches an instructor by id.
func (s *Store) Instructor(id int64) (Instructor, bool) {
	r, ok := s.db.MustTable("Instructors").Get(id)
	if !ok {
		return Instructor{}, false
	}
	return Instructor{ID: r[0].(int64), Name: r[1].(string), DepID: r[2].(string)}, true
}

// AddPrereq declares that course requires another course first. Cycles
// are rejected (a course cannot transitively require itself).
func (s *Store) AddPrereq(courseID, requiresID int64) error {
	if courseID == requiresID {
		return fmt.Errorf("catalog: course %d cannot require itself", courseID)
	}
	if _, ok := s.Course(courseID); !ok {
		return fmt.Errorf("catalog: unknown course %d", courseID)
	}
	if _, ok := s.Course(requiresID); !ok {
		return fmt.Errorf("catalog: unknown course %d", requiresID)
	}
	// Reject if courseID is reachable from requiresID.
	seen := map[int64]bool{}
	stack := []int64{requiresID}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == courseID {
			return fmt.Errorf("catalog: prerequisite cycle: %d ⇢ %d", courseID, requiresID)
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		stack = append(stack, s.Prereqs(cur)...)
	}
	_, err := s.db.MustTable("Prereqs").Insert(relation.Row{courseID, requiresID})
	return err
}

// Prereqs returns the direct prerequisites of a course.
func (s *Store) Prereqs(courseID int64) []int64 {
	rows := s.db.MustTable("Prereqs").Lookup("CourseID", courseID)
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[1].(int64)
	}
	return out
}

// ReportTextbook records a (possibly volunteer-reported) textbook.
func (s *Store) ReportTextbook(b Textbook) (int64, error) {
	if _, ok := s.Course(b.CourseID); !ok {
		return 0, fmt.Errorf("catalog: unknown course %d", b.CourseID)
	}
	if b.Title == "" {
		return 0, fmt.Errorf("catalog: textbook needs a title")
	}
	var reporter relation.Value
	if b.ReportedBy != 0 {
		reporter = b.ReportedBy
	}
	r, err := s.db.MustTable("Textbooks").InsertGet(relation.Row{nil, b.CourseID, b.Title, b.Author, reporter})
	if err != nil {
		return 0, err
	}
	return r[0].(int64), nil
}

// Textbooks returns a course's textbooks.
func (s *Store) Textbooks(courseID int64) []Textbook {
	rows := s.db.MustTable("Textbooks").Lookup("CourseID", courseID)
	out := make([]Textbook, len(rows))
	for i, r := range rows {
		var author string
		if r[3] != nil {
			author = r[3].(string)
		}
		var rep int64
		if r[4] != nil {
			rep = r[4].(int64)
		}
		out[i] = Textbook{ID: r[0].(int64), CourseID: r[1].(int64), Title: r[2].(string), Author: author, ReportedBy: rep}
	}
	return out
}
