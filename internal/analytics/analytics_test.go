package analytics

import (
	"math"
	"testing"

	"courserank/internal/comments"
	"courserank/internal/relation"
)

// fixture builds a comments store with a controlled activity pattern.
func fixture(t *testing.T) (*Service, *comments.Store) {
	t.Helper()
	db := relation.NewDB()
	cs, err := comments.Setup(db)
	if err != nil {
		t.Fatal(err)
	}
	return New(db), cs
}

func addComment(t *testing.T, cs *comments.Store, su, course, year int64, term string, rating float64) {
	t.Helper()
	if _, err := cs.Add(comments.Comment{SuID: su, CourseID: course, Year: year, Term: term, Text: "t", Rating: rating}); err != nil {
		t.Fatal(err)
	}
}

func TestActivityByQuarter(t *testing.T) {
	svc, cs := fixture(t)
	addComment(t, cs, 1, 10, 2007, "Autumn", 4)
	addComment(t, cs, 2, 10, 2007, "Autumn", 5)
	addComment(t, cs, 1, 11, 2008, "Winter", 3)
	// Same student twice in one quarter counts once as a rater.
	addComment(t, cs, 1, 12, 2008, "Winter", 3)
	series := svc.ActivityByQuarter()
	if len(series) != 2 {
		t.Fatalf("series = %+v", series)
	}
	if series[0].Year != 2007 || series[0].Comments != 2 || series[0].Raters != 2 {
		t.Errorf("q0 = %+v", series[0])
	}
	if series[1].Year != 2008 || series[1].Comments != 2 || series[1].Raters != 1 {
		t.Errorf("q1 = %+v", series[1])
	}
}

func TestRatingDrift(t *testing.T) {
	svc, cs := fixture(t)
	// Course 10: 2007 avg 5 → 2008 avg 2 (big negative drift).
	addComment(t, cs, 1, 10, 2007, "Autumn", 5)
	addComment(t, cs, 2, 10, 2007, "Autumn", 5)
	addComment(t, cs, 3, 10, 2008, "Autumn", 2)
	addComment(t, cs, 4, 10, 2008, "Autumn", 2)
	// Course 11: stable.
	addComment(t, cs, 1, 11, 2007, "Autumn", 4)
	addComment(t, cs, 2, 11, 2008, "Autumn", 4)
	// Course 12: single year — excluded.
	addComment(t, cs, 1, 12, 2008, "Autumn", 3)
	drifts := svc.RatingDriftByCourse(1)
	if len(drifts) != 2 {
		t.Fatalf("drifts = %+v", drifts)
	}
	if drifts[0].CourseID != 10 || math.Abs(drifts[0].Delta+3) > 1e-9 {
		t.Errorf("biggest drift = %+v", drifts[0])
	}
	if drifts[1].CourseID != 11 || drifts[1].Delta != 0 {
		t.Errorf("stable course = %+v", drifts[1])
	}
	// Higher threshold excludes courses with 1 rating per year.
	if got := svc.RatingDriftByCourse(2); len(got) != 1 || got[0].CourseID != 10 {
		t.Errorf("minPerYear=2: %+v", got)
	}
}

func TestConcentration(t *testing.T) {
	svc, cs := fixture(t)
	// One power user writes 8 comments; two casual users write 1 each.
	for i := 0; i < 8; i++ {
		addComment(t, cs, 1, int64(20+i), 2008, "Autumn", 4)
	}
	addComment(t, cs, 2, 30, 2008, "Autumn", 4)
	addComment(t, cs, 3, 31, 2008, "Autumn", 4)
	c := svc.ContributionConcentration()
	if c.Contributors != 3 {
		t.Errorf("contributors = %d", c.Contributors)
	}
	if c.Top10Share != 0.8 {
		t.Errorf("top10 share = %v", c.Top10Share)
	}
	if c.Gini < 0.4 || c.Gini > 0.8 {
		t.Errorf("gini = %v", c.Gini)
	}
	// Perfectly even distribution → Gini near 0.
	svc2, cs2 := fixture(t)
	for su := int64(1); su <= 4; su++ {
		addComment(t, cs2, su, su, 2008, "Autumn", 4)
	}
	if g := svc2.ContributionConcentration().Gini; g > 1e-9 {
		t.Errorf("even gini = %v", g)
	}
}

func TestCoverage(t *testing.T) {
	db := relation.NewDB()
	cs, err := comments.Setup(db)
	if err != nil {
		t.Fatal(err)
	}
	courses := relation.MustTable("Courses", relation.MustSchema(
		relation.NotNullCol("CourseID", relation.TypeInt),
		relation.NotNullCol("Title", relation.TypeString),
	), relation.WithPrimaryKey("CourseID"))
	db.MustCreate(courses)
	for i := int64(1); i <= 10; i++ {
		courses.MustInsert(relation.Row{i, "c"})
	}
	svc := New(db)
	if _, err := cs.Add(comments.Comment{SuID: 1, CourseID: 1, Year: 2008, Term: "Aut", Text: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := cs.Rate(1, 2, 4); err != nil {
		t.Fatal(err)
	}
	cov := svc.CatalogCoverage()
	if cov.Courses != 10 || cov.WithComments != 1 || cov.WithRatings != 1 {
		t.Errorf("coverage = %+v", cov)
	}
	if cov.CommentShare != 0.1 || cov.RatingShare != 0.1 {
		t.Errorf("shares = %+v", cov)
	}
}

func TestEmptyDatabase(t *testing.T) {
	svc := New(relation.NewDB())
	if svc.ActivityByQuarter() != nil {
		t.Error("activity on empty db")
	}
	if svc.RatingDriftByCourse(1) != nil {
		t.Error("drift on empty db")
	}
	if c := svc.ContributionConcentration(); c.Contributors != 0 {
		t.Error("concentration on empty db")
	}
	if cov := svc.CatalogCoverage(); cov.Courses != 0 {
		t.Error("coverage on empty db")
	}
}
