// Package planner implements CourseRank's course planner (§2.1 "New
// Tools", Figure 1 right): students record courses taken (with
// self-reported grades) and courses planned, organize them into
// quarterly schedules and multi-year plans, detect schedule conflicts,
// compute per-quarter and cumulative GPAs, and validate prerequisite
// order. The planner is the paper's flagship "sticky" incentive: it is
// useful enough that students enter accurate data (§2.2).
package planner

import (
	"fmt"
	"sort"

	"courserank/internal/catalog"
	"courserank/internal/relation"
)

// Entry is one course on a student's record: either taken (with an
// optional self-reported grade) or planned for a future quarter.
type Entry struct {
	SuID     int64
	CourseID int64
	Year     int64
	Term     catalog.Term
	Grade    catalog.Grade // taken entries only; "" when ungraded
	Planned  bool
}

// Store provides typed access to enrollment and plan data.
type Store struct {
	db  *relation.DB
	cat *catalog.Store
}

// Setup creates the planner tables.
func Setup(db *relation.DB, cat *catalog.Store) (*Store, error) {
	enroll := relation.MustTable("Enrollments",
		relation.MustSchema(
			relation.NotNullCol("SuID", relation.TypeInt),
			relation.NotNullCol("CourseID", relation.TypeInt),
			relation.NotNullCol("Year", relation.TypeInt),
			relation.NotNullCol("Term", relation.TypeString),
			relation.Col("Grade", relation.TypeString),
			relation.NotNullCol("Planned", relation.TypeBool),
		), relation.WithIndex("SuID"), relation.WithIndex("CourseID"))
	if _, err := db.Ensure(enroll); err != nil {
		return nil, err
	}
	return &Store{db: db, cat: cat}, nil
}

// Open wraps a database whose planner tables already exist.
func Open(db *relation.DB, cat *catalog.Store) *Store { return &Store{db: db, cat: cat} }

// Record adds an entry to a student's record. Grades are validated;
// planned entries cannot carry grades; duplicates (same student, course,
// quarter) are rejected.
func (s *Store) Record(e Entry) error {
	if _, ok := s.cat.Course(e.CourseID); !ok {
		return fmt.Errorf("planner: unknown course %d", e.CourseID)
	}
	if catalog.TermIndex(e.Term) < 0 {
		return fmt.Errorf("planner: unknown term %q", e.Term)
	}
	if e.Planned && e.Grade != "" {
		return fmt.Errorf("planner: planned courses cannot have grades")
	}
	if e.Grade != "" && !e.Grade.Valid() {
		return fmt.Errorf("planner: unknown grade %q", e.Grade)
	}
	for _, x := range s.Entries(e.SuID) {
		if x.CourseID == e.CourseID && x.Year == e.Year && x.Term == e.Term {
			return fmt.Errorf("planner: duplicate entry for course %d in %s %d", e.CourseID, e.Term, e.Year)
		}
	}
	var grade relation.Value
	if e.Grade != "" {
		grade = string(e.Grade)
	}
	_, err := s.db.MustTable("Enrollments").Insert(relation.Row{e.SuID, e.CourseID, e.Year, string(e.Term), grade, e.Planned})
	return err
}

// Drop removes an entry, reporting whether it existed. A durable-write
// failure reports false — the entry is still there.
func (s *Store) Drop(suID, courseID, year int64, term catalog.Term) bool {
	n, err := s.db.MustTable("Enrollments").DeleteWhere(func(r relation.Row) bool {
		return r[0] == suID && r[1] == courseID && r[2] == year && r[3] == string(term)
	})
	return err == nil && n > 0
}

func entryFromRow(r relation.Row) Entry {
	var g catalog.Grade
	if r[4] != nil {
		g = catalog.Grade(r[4].(string))
	}
	return Entry{
		SuID: r[0].(int64), CourseID: r[1].(int64), Year: r[2].(int64),
		Term: catalog.Term(r[3].(string)), Grade: g, Planned: r[5].(bool),
	}
}

// Entries returns a student's full record, ordered chronologically.
func (s *Store) Entries(suID int64) []Entry {
	rows := s.db.MustTable("Enrollments").Lookup("SuID", suID)
	out := make([]Entry, len(rows))
	for i, r := range rows {
		out[i] = entryFromRow(r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Year != out[b].Year {
			return out[a].Year < out[b].Year
		}
		ta, tb := catalog.TermIndex(out[a].Term), catalog.TermIndex(out[b].Term)
		if ta != tb {
			return ta < tb
		}
		return out[a].CourseID < out[b].CourseID
	})
	return out
}

// Taken returns the ids of courses the student has completed.
func (s *Store) Taken(suID int64) []int64 {
	var out []int64
	for _, e := range s.Entries(suID) {
		if !e.Planned {
			out = append(out, e.CourseID)
		}
	}
	return out
}

// PlannedBy returns the students planning to take a course, honoring
// each student's privacy choice via the shareOK callback (§2.2: "we
// allowed students to see who is planning to take a class (one can opt
// out of sharing)").
func (s *Store) PlannedBy(courseID int64, shareOK func(suID int64) bool) []int64 {
	var out []int64
	seen := map[int64]bool{}
	for _, r := range s.db.MustTable("Enrollments").Lookup("CourseID", courseID) {
		e := entryFromRow(r)
		if !e.Planned || seen[e.SuID] {
			continue
		}
		seen[e.SuID] = true
		if shareOK == nil || shareOK(e.SuID) {
			out = append(out, e.SuID)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// QuarterGPA computes the units-weighted GPA of one quarter of a
// student's record, with the units that counted. Ungraded and planned
// entries are excluded.
func (s *Store) QuarterGPA(suID, year int64, term catalog.Term) (gpa float64, units int64) {
	var pts float64
	for _, e := range s.Entries(suID) {
		if e.Year != year || e.Term != term || e.Planned {
			continue
		}
		p, ok := e.Grade.Points()
		if !ok {
			continue
		}
		c, _ := s.cat.Course(e.CourseID)
		pts += p * float64(c.Units)
		units += c.Units
	}
	if units == 0 {
		return 0, 0
	}
	return pts / float64(units), units
}

// CumulativeGPA computes the units-weighted GPA over the whole record.
func (s *Store) CumulativeGPA(suID int64) (gpa float64, units int64) {
	var pts float64
	for _, e := range s.Entries(suID) {
		if e.Planned {
			continue
		}
		p, ok := e.Grade.Points()
		if !ok {
			continue
		}
		c, _ := s.cat.Course(e.CourseID)
		pts += p * float64(c.Units)
		units += c.Units
	}
	if units == 0 {
		return 0, 0
	}
	return pts / float64(units), units
}

// Conflict describes two offerings that meet at overlapping times.
type Conflict struct {
	A, B catalog.Offering
}

// Conflicts finds schedule conflicts among the offerings of the courses
// a student has planned or taken in one quarter. Courses without a
// scheduled offering that quarter are skipped; for multi-offering
// courses the first offering is assumed.
func (s *Store) Conflicts(suID, year int64, term catalog.Term) []Conflict {
	var offs []catalog.Offering
	for _, e := range s.Entries(suID) {
		if e.Year != year || e.Term != term {
			continue
		}
		for _, o := range s.cat.Offerings(e.CourseID) {
			if o.Year == year && o.Term == term {
				offs = append(offs, o)
				break
			}
		}
	}
	var out []Conflict
	for i := 0; i < len(offs); i++ {
		for j := i + 1; j < len(offs); j++ {
			if offs[i].Overlaps(offs[j]) {
				out = append(out, Conflict{A: offs[i], B: offs[j]})
			}
		}
	}
	return out
}

// UnitLoad sums the units of one quarter's entries.
func (s *Store) UnitLoad(suID, year int64, term catalog.Term) int64 {
	var units int64
	for _, e := range s.Entries(suID) {
		if e.Year != year || e.Term != term {
			continue
		}
		c, _ := s.cat.Course(e.CourseID)
		units += c.Units
	}
	return units
}

// MaxUnitsPerQuarter is the registrar's normal unit cap; OverloadedQuarters
// flags quarters above it.
const MaxUnitsPerQuarter = 20

// Quarter identifies one academic quarter.
type Quarter struct {
	Year int64
	Term catalog.Term
}

// OverloadedQuarters returns the quarters whose unit load exceeds
// MaxUnitsPerQuarter.
func (s *Store) OverloadedQuarters(suID int64) []Quarter {
	loads := map[Quarter]int64{}
	for _, e := range s.Entries(suID) {
		c, _ := s.cat.Course(e.CourseID)
		loads[Quarter{e.Year, e.Term}] += c.Units
	}
	var out []Quarter
	for q, u := range loads {
		if u > MaxUnitsPerQuarter {
			out = append(out, q)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Year != out[b].Year {
			return out[a].Year < out[b].Year
		}
		return catalog.TermIndex(out[a].Term) < catalog.TermIndex(out[b].Term)
	})
	return out
}

// PrereqViolation reports a course scheduled before (or without) one of
// its prerequisites.
type PrereqViolation struct {
	CourseID   int64
	RequiresID int64
	Year       int64
	Term       catalog.Term
}

// ValidatePrereqs checks that every entry's prerequisites are completed
// or scheduled in a strictly earlier quarter.
func (s *Store) ValidatePrereqs(suID int64) []PrereqViolation {
	entries := s.Entries(suID)
	// Earliest quarter each course appears in.
	pos := map[int64]int64{} // courseID → year*4 + term index
	for _, e := range entries {
		key := e.Year*4 + int64(catalog.TermIndex(e.Term))
		if old, ok := pos[e.CourseID]; !ok || key < old {
			pos[e.CourseID] = key
		}
	}
	var out []PrereqViolation
	for _, e := range entries {
		ekey := e.Year*4 + int64(catalog.TermIndex(e.Term))
		if pos[e.CourseID] != ekey {
			continue // only check the first occurrence
		}
		for _, req := range s.cat.Prereqs(e.CourseID) {
			rkey, taken := pos[req]
			if !taken || rkey >= ekey {
				out = append(out, PrereqViolation{CourseID: e.CourseID, RequiresID: req, Year: e.Year, Term: e.Term})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].CourseID != out[b].CourseID {
			return out[a].CourseID < out[b].CourseID
		}
		return out[a].RequiresID < out[b].RequiresID
	})
	return out
}

// FourYearPlan lays a student's record out as the Figure-1-style grid:
// quarters in chronological order with their entries, unit loads, and
// quarter GPAs.
type FourYearPlan struct {
	SuID     int64
	Quarters []PlanQuarter
	GPA      float64
	Units    int64
}

// PlanQuarter is one cell row of the plan grid.
type PlanQuarter struct {
	Year    int64
	Term    catalog.Term
	Entries []Entry
	Units   int64
	GPA     float64
	HasGPA  bool
}

// Plan assembles the student's full multi-year plan.
func (s *Store) Plan(suID int64) FourYearPlan {
	entries := s.Entries(suID)
	var quarters []PlanQuarter
	index := map[Quarter]int{}
	for _, e := range entries {
		q := Quarter{e.Year, e.Term}
		i, ok := index[q]
		if !ok {
			i = len(quarters)
			index[q] = i
			quarters = append(quarters, PlanQuarter{Year: e.Year, Term: e.Term})
		}
		quarters[i].Entries = append(quarters[i].Entries, e)
	}
	for i := range quarters {
		quarters[i].Units = s.UnitLoad(suID, quarters[i].Year, quarters[i].Term)
		gpa, units := s.QuarterGPA(suID, quarters[i].Year, quarters[i].Term)
		if units > 0 {
			quarters[i].GPA, quarters[i].HasGPA = gpa, true
		}
	}
	cum, units := s.CumulativeGPA(suID)
	return FourYearPlan{SuID: suID, Quarters: quarters, GPA: cum, Units: units}
}
