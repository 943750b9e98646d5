package experiments

import (
	"strings"
	"sync"
	"testing"

	"courserank/internal/datagen"
)

// The runner is expensive to build; share one across tests.
var (
	once   sync.Once
	shared *Runner
	genErr error
)

func runner(t *testing.T) *Runner {
	t.Helper()
	once.Do(func() { shared, genErr = NewRunner(datagen.Tiny()) })
	if genErr != nil {
		t.Fatal(genErr)
	}
	return shared
}

func TestTable1Report(t *testing.T) {
	out := runner(t).Table1()
	for _, want := range []string{"closed community", "user contributed + official", "10/10 CourseRank claims verified"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestFigure1Report(t *testing.T) {
	out := runner(t).Figure1()
	for _, want := range []string{"Figure 1", "CS106A", "Four-Year Plan", "Cumulative GPA"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure1 missing %q", want)
		}
	}
}

func TestFigure2Report(t *testing.T) {
	out := runner(t).Figure2()
	for _, want := range []string{"FlexRecs", "Course Cloud", "Req Tracker", "Book Exchange", "up"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure2 missing %q", want)
		}
	}
	if strings.Contains(out, "down") {
		t.Error("no component should be down")
	}
}

func TestFigure3And4Reports(t *testing.T) {
	r := runner(t)
	out3, res, err := r.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out3, "courses returned for this search") {
		t.Error("Figure3 missing result header")
	}
	if res.Total() != r.Man.ThemedCourses {
		t.Errorf("Figure3 count = %d, want %d", res.Total(), r.Man.ThemedCourses)
	}
	out4, err := r.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out4, "Updated Course Cloud") {
		t.Error("Figure4 missing updated cloud")
	}
}

func TestFigure5Reports(t *testing.T) {
	r := runner(t)
	out, err := r.Figure5a()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SQL>", "Jaccard[Title]", "Introduction to Programming"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure5a missing %q:\n%s", want, out)
		}
	}
	out, err = r.Figure5b()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"inv_Euclidean", "W_Avg", "predicted rating"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure5b missing %q:\n%s", want, out)
		}
	}
}

func TestScaleStatsReport(t *testing.T) {
	out := runner(t).ScaleStats()
	for _, want := range []string{"18,605", "134,000", "50,300"} {
		if !strings.Contains(out, want) {
			t.Errorf("ScaleStats missing paper figure %q", want)
		}
	}
}

func TestGradeDivergenceReport(t *testing.T) {
	out := runner(t).GradeDivergence()
	if !strings.Contains(out, "Engineering") {
		t.Errorf("GradeDivergence missing Engineering row:\n%s", out)
	}
	if !strings.Contains(out, "disclosed") || !strings.Contains(out, "suppressed") {
		t.Error("GradeDivergence should show both disclosure policies")
	}
}

func TestIncentivesReport(t *testing.T) {
	out, err := runner(t).Incentives()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ledger arithmetic verified: true") {
		t.Errorf("incentive ledger failed:\n%s", out)
	}
}

func TestEvolutionReport(t *testing.T) {
	out := runner(t).Evolution()
	for _, want := range []string{"quarter", "comments", "Gini", "catalog coverage"} {
		if !strings.Contains(out, want) {
			t.Errorf("Evolution missing %q:\n%s", want, out)
		}
	}
}

func TestAblations(t *testing.T) {
	r := runner(t)
	out, err := r.AblationFlexVsHandCoded()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "score agreement at every rank: true") {
		t.Errorf("A1 disagreement:\n%s", out)
	}
	out, err = r.AblationCloudCost()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cloud terms") {
		t.Error("A2 missing table")
	}
	out, err = r.AblationEntitySearch()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "title-only") {
		t.Error("A3 missing comparison")
	}
}
