package stats

import (
	"math"
	"testing"

	"courserank/internal/catalog"
	"courserank/internal/planner"
	"courserank/internal/relation"
)

// fixture builds catalog + planner + stats over one shared database,
// with an Engineering course and a History course.
func fixture(t *testing.T) (*Service, *planner.Store, map[string]int64) {
	t.Helper()
	db := relation.NewDB()
	cat, err := catalog.Setup(db)
	if err != nil {
		t.Fatal(err)
	}
	must := func(e error) {
		if e != nil {
			t.Fatal(e)
		}
	}
	must(cat.AddDepartment(catalog.Department{ID: "CS", Name: "CS", School: "Engineering"}))
	must(cat.AddDepartment(catalog.Department{ID: "HIST", Name: "History", School: "Humanities and Sciences"}))
	ids := map[string]int64{}
	ids["cs"], _ = cat.AddCourse(catalog.Course{DepID: "CS", Number: "145", Title: "Databases", Units: 4})
	ids["hist"], _ = cat.AddCourse(catalog.Course{DepID: "HIST", Number: "1", Title: "History", Units: 3})
	pl, err := planner.Setup(db, cat)
	must(err)
	svc, err := Setup(db, cat)
	must(err)
	return svc, pl, ids
}

func loadOfficial(t *testing.T, svc *Service, course int64, counts map[catalog.Grade]int) {
	t.Helper()
	for g, n := range counts {
		if err := svc.LoadOfficial(course, 2008, g, n); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOfficialDisclosurePolicy(t *testing.T) {
	svc, _, ids := fixture(t)
	loadOfficial(t, svc, ids["cs"], map[catalog.Grade]int{"A": 10, "B": 5})
	loadOfficial(t, svc, ids["hist"], map[catalog.Grade]int{"A": 10, "B": 5})
	// Engineering discloses (the paper: "only the School of Engineering
	// has bought our argument").
	cs := svc.OfficialDistribution(ids["cs"])
	if cs.Suppressed || cs.Total != 15 || cs.Counts["A"] != 10 {
		t.Errorf("cs dist = %+v", cs)
	}
	// History (H&S) does not disclose.
	hist := svc.OfficialDistribution(ids["hist"])
	if !hist.Suppressed {
		t.Error("non-disclosing school must suppress")
	}
	// Flip the policy.
	svc.SetDisclosure("Humanities and Sciences", true)
	if svc.OfficialDistribution(ids["hist"]).Suppressed {
		t.Error("after disclosure grant, distribution should show")
	}
	svc.SetDisclosure("Engineering", false)
	if !svc.OfficialDistribution(ids["cs"]).Suppressed {
		t.Error("after disclosure revoke, distribution should hide")
	}
	if !svc.Discloses("Humanities and Sciences") || svc.Discloses("Engineering") {
		t.Error("Discloses state wrong")
	}
}

func TestKAnonymitySuppression(t *testing.T) {
	svc, _, ids := fixture(t)
	// Four students < MinClassSize=5 → suppressed even for Engineering.
	loadOfficial(t, svc, ids["cs"], map[catalog.Grade]int{"A": 2, "B": 2})
	d := svc.OfficialDistribution(ids["cs"])
	if !d.Suppressed {
		t.Error("small class must be suppressed")
	}
	if d.Total != 4 {
		t.Errorf("Total still reported: %d", d.Total)
	}
	if d.Share("A") != 0 {
		t.Error("suppressed distribution must not reveal shares")
	}
}

func TestSelfReportedDistribution(t *testing.T) {
	svc, pl, ids := fixture(t)
	grades := []catalog.Grade{"A", "A", "A-", "B+", "B", "B"}
	for i, g := range grades {
		err := pl.Record(planner.Entry{SuID: int64(i + 1), CourseID: ids["cs"], Year: 2008, Term: catalog.Autumn, Grade: g})
		if err != nil {
			t.Fatal(err)
		}
	}
	// One planned and one ungraded entry must not count.
	pl.Record(planner.Entry{SuID: 100, CourseID: ids["cs"], Year: 2009, Term: catalog.Autumn, Planned: true})
	pl.Record(planner.Entry{SuID: 101, CourseID: ids["cs"], Year: 2008, Term: catalog.Winter})
	d := svc.SelfReportedDistribution(ids["cs"])
	if d.Suppressed || d.Total != 6 {
		t.Fatalf("dist = %+v", d)
	}
	if d.Counts["A"] != 2 || d.Counts["B"] != 2 {
		t.Errorf("counts = %v", d.Counts)
	}
	if got := d.Share("A"); math.Abs(got-2.0/6) > 1e-9 {
		t.Errorf("Share(A) = %v", got)
	}
	mean := d.Mean()
	if mean < 3.3 || mean > 3.7 {
		t.Errorf("Mean = %v", mean)
	}
}

func TestDivergenceEngineeringClaim(t *testing.T) {
	svc, pl, ids := fixture(t)
	// Official: 10 A, 10 B. Self-reported mirrors it closely.
	loadOfficial(t, svc, ids["cs"], map[catalog.Grade]int{"A": 10, "B": 10})
	su := int64(0)
	for i := 0; i < 5; i++ {
		su++
		pl.Record(planner.Entry{SuID: su, CourseID: ids["cs"], Year: 2008, Term: catalog.Autumn, Grade: "A"})
	}
	for i := 0; i < 5; i++ {
		su++
		pl.Record(planner.Entry{SuID: su, CourseID: ids["cs"], Year: 2008, Term: catalog.Autumn, Grade: "B"})
	}
	tv, ok := svc.Divergence(ids["cs"])
	if !ok {
		t.Fatal("divergence should be computable")
	}
	if tv > 0.05 {
		t.Errorf("matched distributions should have tiny TV distance, got %v", tv)
	}
	// Not computable without self-reported data.
	if _, ok := svc.Divergence(ids["hist"]); ok {
		t.Error("divergence without data should be not-ok")
	}
}

func TestTVDistance(t *testing.T) {
	mk := func(a, b int) Distribution {
		return Distribution{Counts: map[catalog.Grade]int{"A": a, "B": b}, Total: a + b}
	}
	if d := TVDistance(mk(10, 0), mk(10, 0)); d != 0 {
		t.Errorf("identical = %v", d)
	}
	if d := TVDistance(mk(10, 0), mk(0, 10)); math.Abs(d-1) > 1e-9 {
		t.Errorf("disjoint = %v", d)
	}
	if d := TVDistance(mk(5, 5), mk(10, 0)); math.Abs(d-0.5) > 1e-9 {
		t.Errorf("half = %v", d)
	}
	if d := TVDistance(Distribution{}, mk(1, 1)); d != 1 {
		t.Errorf("empty = %v", d)
	}
}

func TestValidationAndHistogram(t *testing.T) {
	svc, _, ids := fixture(t)
	if err := svc.LoadOfficial(ids["cs"], 2008, "Z", 1); err == nil {
		t.Error("bad grade should fail")
	}
	if err := svc.LoadOfficial(ids["cs"], 2008, "A", -1); err == nil {
		t.Error("negative count should fail")
	}
	// No Ratings table in this fixture's db? It is created by comments
	// Setup; here absent — histogram must be all zeros, not panic.
	h := svc.RatingHistogram(ids["cs"])
	for _, n := range h {
		if n != 0 {
			t.Error("histogram should be empty")
		}
	}
}

func TestCompareCourse(t *testing.T) {
	// Needs the Ratings table, which the comments package owns; create a
	// shared db with both subsystems.
	db := relation.NewDB()
	cat, err := catalog.Setup(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddDepartment(catalog.Department{ID: "CS", Name: "CS", School: "Engineering"}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddDepartment(catalog.Department{ID: "HIST", Name: "History", School: "H&S"}); err != nil {
		t.Fatal(err)
	}
	a, _ := cat.AddCourse(catalog.Course{DepID: "CS", Number: "1", Title: "A", Units: 3})
	b, _ := cat.AddCourse(catalog.Course{DepID: "CS", Number: "2", Title: "B", Units: 3})
	c, _ := cat.AddCourse(catalog.Course{DepID: "HIST", Number: "1", Title: "C", Units: 3})
	ratings := relation.MustTable("Ratings", relation.MustSchema(
		relation.NotNullCol("SuID", relation.TypeInt),
		relation.NotNullCol("CourseID", relation.TypeInt),
		relation.NotNullCol("Rating", relation.TypeFloat),
	), relation.WithPrimaryKey("SuID", "CourseID"), relation.WithIndex("CourseID"))
	if err := db.Create(ratings); err != nil {
		t.Fatal(err)
	}
	svc := Open(db, cat)
	// Course a: avg 5; course b: avg 3; course c: avg 4.
	for i, spec := range []struct {
		course int64
		rating float64
	}{{a, 5}, {a, 5}, {b, 3}, {b, 3}, {c, 4}} {
		ratings.MustInsert(relation.Row{int64(i + 1), spec.course, spec.rating})
	}
	cmp, ok := svc.CompareCourse(a)
	if !ok {
		t.Fatal("comparison should exist")
	}
	if cmp.AvgRating != 5 || cmp.Raters != 2 {
		t.Errorf("cmp = %+v", cmp)
	}
	if cmp.DeptRank != 1 || cmp.DeptSize != 2 {
		t.Errorf("dept rank = %d/%d", cmp.DeptRank, cmp.DeptSize)
	}
	if cmp.DeptPercentile != 100 || cmp.AllPercentile != 100 {
		t.Errorf("percentiles = %+v", cmp)
	}
	cmpB, _ := svc.CompareCourse(b)
	if cmpB.DeptRank != 2 {
		t.Errorf("b dept rank = %d", cmpB.DeptRank)
	}
	if cmpB.AllPercentile >= cmp.AllPercentile {
		t.Error("b should rank below a overall")
	}
	if _, ok := svc.CompareCourse(999); ok {
		t.Error("missing course should not compare")
	}
	d, _ := cat.AddCourse(catalog.Course{DepID: "CS", Number: "3", Title: "D", Units: 3})
	if _, ok := svc.CompareCourse(d); ok {
		t.Error("unrated course should not compare")
	}
}

func TestDistributionMeanSuppressed(t *testing.T) {
	d := Distribution{Counts: map[catalog.Grade]int{"A": 3}, Total: 3, Suppressed: true}
	if d.Mean() != 0 || d.Share("A") != 0 {
		t.Error("suppressed distribution must reveal nothing")
	}
}
