// Benchmarks regenerating every table and figure of the paper, plus the
// ablations DESIGN.md defines. One Small-scale deployment (a tenth of
// the paper's: 1,861 courses, 13,400 comments) is generated once and
// shared; absolute timings are not the point — the paper publishes none
// — but the relative shapes (FlexRecs overhead vs hard-coded, cloud
// cost vs result size, entity vs tuple search) are the reproduction.
package courserank

import (
	"sync"
	"testing"

	"courserank/internal/catalog"
	"courserank/internal/cloud"
	"courserank/internal/core"
	"courserank/internal/datagen"
	"courserank/internal/experiments"
	"courserank/internal/render"
	"courserank/internal/search"
)

var (
	benchOnce sync.Once
	benchRun  *experiments.Runner
	benchErr  error
)

func runner(b *testing.B) *experiments.Runner {
	b.Helper()
	benchOnce.Do(func() { benchRun, benchErr = experiments.NewRunner(datagen.Small()) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRun
}

// BenchmarkTable1CapabilityAudit regenerates Table 1 with its live
// capability checks.
func BenchmarkTable1CapabilityAudit(b *testing.B) {
	r := runner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := r.Site.Table1()
		if len(rows) != 10 {
			b.Fatal("table 1 shape")
		}
	}
}

// BenchmarkFigure1CoursePage renders the course descriptor page.
func BenchmarkFigure1CoursePage(b *testing.B) {
	r := runner(b)
	id := r.Man.Planted["intro-programming"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := render.CoursePage(r.Site, id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Planner renders the multi-year plan with conflicts,
// GPAs and prerequisite validation.
func BenchmarkFigure1Planner(b *testing.B) {
	r := runner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := render.Plan(r.Site, r.Man.SampleStudent); out == "" {
			b.Fatal("empty plan")
		}
	}
}

// BenchmarkFigure2SiteBuild wires the full Figure 2 component stack
// (empty data).
func BenchmarkFigure2SiteBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.NewSite(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3SearchAmerican runs the Figure 3 entity search.
func BenchmarkFigure3SearchAmerican(b *testing.B) {
	r := runner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Site.SearchCourses("american")
		if err != nil || res.Total() != r.Man.ThemedCourses {
			b.Fatalf("total=%d err=%v", res.Total(), err)
		}
	}
}

// BenchmarkFigure3Cloud computes the Figure 3 data cloud over the full
// result set (§3.1: "how can we dynamically and efficiently compute
// their data cloud?").
func BenchmarkFigure3Cloud(b *testing.B) {
	r := runner(b)
	res, err := r.Site.SearchCourses("american")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Site.CourseCloud(res, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Refine measures the click-to-refine interaction
// (search + phrase conjunction + new cloud).
func BenchmarkFigure4Refine(b *testing.B) {
	r := runner(b)
	res, err := r.Site.SearchCourses("american")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := r.Site.RefineSearch(res, "african american")
		if err != nil || ref.Total() != r.Man.AfricanAmericanCourses {
			b.Fatalf("total=%d err=%v", ref.Total(), err)
		}
		if _, err := r.Site.CourseCloud(ref, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5aRelatedCourses runs the Figure 5(a) workflow end to
// end (SQL compile + execute + Jaccard recommend).
func BenchmarkFigure5aRelatedCourses(b *testing.B) {
	r := runner(b)
	tpl, _ := r.Site.Strategies.Get("related-courses")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wf, err := tpl.Build(map[string]any{"title": "Introduction to Programming", "k": 10})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Site.Flex.Run(wf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5bCollaborative runs the Figure 5(b) two-recommend
// workflow (extend + inv_Euclidean neighbors + Identify/W_Avg).
func BenchmarkFigure5bCollaborative(b *testing.B) {
	r := runner(b)
	tpl, _ := r.Site.Strategies.Get("cf-courses")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wf, err := tpl.Build(map[string]any{"student": r.Man.SampleStudent, "k": 10, "neighbors": 20})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Site.Flex.Run(wf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkS1DeploymentLoad measures full deployment generation —
// catalog, people, enrollments, comments, official grades, derived
// tables and the search index — at the Tiny preset (the §2 statistics
// scale linearly; crbench -scale paper runs the full 18,605/134,000).
func BenchmarkS1DeploymentLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		site, err := core.NewSite()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := datagen.Populate(site, datagen.Tiny()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkS2GradeDivergence computes the official-vs-self-reported TV
// distances across the catalog (§2.2 Engineering claim).
func BenchmarkS2GradeDivergence(b *testing.B) {
	r := runner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := r.GradeDivergence(); out == "" {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkS3IncentiveLedger measures point accrual plus total and
// leaderboard reads (§2.2 scheme).
func BenchmarkS3IncentiveLedger(b *testing.B) {
	r := runner(b)
	u, ok := r.Site.Community.UserByUsername("stu00001")
	if !ok {
		b.Fatal("missing user")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Site.Community.Award(u.ID, "bench", 1, ""); err != nil {
			b.Fatal(err)
		}
		r.Site.Community.Points(u.ID)
		r.Site.Community.Leaderboard(10)
	}
}

// BenchmarkE1Evolution computes the §1 evolution metrics (activity
// series, drift, concentration, coverage) across the whole deployment.
func BenchmarkE1Evolution(b *testing.B) {
	r := runner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := r.Evolution(); out == "" {
			b.Fatal("empty evolution report")
		}
	}
}

// BenchmarkA1FlexRecsVsHandCoded contrasts the declarative CF workflow
// with the equivalent hard-coded recommender — the cost of FlexRecs'
// flexibility (§3.2). Run with -bench A1 to see both lines.
func BenchmarkA1FlexRecsVsHandCoded(b *testing.B) {
	r := runner(b)
	b.Run("workflow", func(b *testing.B) {
		tpl, _ := r.Site.Strategies.Get("cf-courses")
		for i := 0; i < b.N; i++ {
			wf, err := tpl.Build(map[string]any{"student": r.Man.SampleStudent, "k": 10, "neighbors": 20})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.Site.Flex.Run(wf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hardcoded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out := r.Site.Baseline.UserUserCF(r.Man.SampleStudent, 20, 10, false); out == nil {
				b.Fatal("no result")
			}
		}
	})
}

// BenchmarkA2CloudVsResultSize sweeps cloud computation cost against
// the number of result documents summarized.
func BenchmarkA2CloudVsResultSize(b *testing.B) {
	r := runner(b)
	res, err := r.Site.SearchCourses("american")
	if err != nil {
		b.Fatal(err)
	}
	ix, err := r.Site.SearchIndex()
	if err != nil {
		b.Fatal(err)
	}
	ids := res.IDs()
	for _, n := range []int{10, 25, 50, 100} {
		if n > len(ids) {
			n = len(ids)
		}
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cloud.Compute(ix.Text(), ids[:n], cloud.Options{MaxTerms: 30, Exclude: []string{"american"}})
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 100:
		return "docs100"
	case n >= 50:
		return "docs50"
	case n >= 25:
		return "docs25"
	default:
		return "docs10"
	}
}

// BenchmarkA3EntityVsTupleSearch contrasts entity search spanning
// relations with title-only tuple search (§3.1 Q1): the entity index
// answers over far more text yet recall is what the paper cares about;
// the report side lives in crbench -exp a3.
func BenchmarkA3EntityVsTupleSearch(b *testing.B) {
	r := runner(b)
	// Title-only index built once outside the timers.
	tb, err := search.NewBuilder(search.EntityDef{Name: "t", Fields: []search.FieldSpec{{Name: "title", Weight: 1}}})
	if err != nil {
		b.Fatal(err)
	}
	var buildErr error
	r.Site.Catalog.EachCourse(func(c catalog.Course) bool {
		buildErr = tb.Append(c.ID, "title", c.Title)
		return buildErr == nil
	})
	if buildErr != nil {
		b.Fatal(buildErr)
	}
	titleIx, err := tb.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("entity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res, err := r.Site.SearchCourses("american"); err != nil || res.Total() == 0 {
				b.Fatal("entity search failed")
			}
		}
	})
	b.Run("title-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			titleIx.Search("american")
		}
	})
}
