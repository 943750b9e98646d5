package cloud

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"courserank/internal/textindex"
)

// corpus builds an index shaped like the Figure 3 scenario: a large body
// of unrelated courses plus an "american" cluster with sub-themes.
func corpus(t *testing.T) (*textindex.Index, []int64) {
	t.Helper()
	ix := textindex.MustNew(textindex.Field{Name: "text", Weight: 1})
	var american []int64
	id := int64(0)
	add := func(text string, inResults bool) {
		id++
		if err := ix.Add(id, []string{text}); err != nil {
			t.Fatal(err)
		}
		if inResults {
			american = append(american, id)
		}
	}
	// Varied sentences, as real comments are: theme words appear in many
	// different bigram contexts so they stand alone in the cloud.
	politics := []string{
		"american history and politics of the united states",
		"modern politics in american life",
		"politics shaped this american century",
		"comparative politics with an american lens",
	}
	for i := 0; i < 12; i++ {
		add(politics[i%len(politics)], true)
	}
	for i := 0; i < 8; i++ {
		add("latin american literature and culture", true)
	}
	for i := 0; i < 5; i++ {
		add("african american experience in american cities", true)
	}
	indians := []string{
		"american indians and tribal nations",
		"indians of the great plains in american memory",
		"history of the indians before american settlement",
	}
	for i := 0; i < 4; i++ {
		add(indians[i%len(indians)], true)
	}
	// Background noise: common words that appear everywhere should score
	// low even if present in results.
	for i := 0; i < 60; i++ {
		add("introduction to chemistry with laboratory units", false)
	}
	for i := 0; i < 40; i++ {
		add("calculus for engineers covering derivatives", false)
	}
	ix.Finish()
	return ix, american
}

func TestComputeSurfacesThemes(t *testing.T) {
	ix, results := corpus(t)
	c := Compute(ix, results, Options{Exclude: []string{"american"}})
	if c.ResultSize != len(results) {
		t.Fatalf("ResultSize = %d", c.ResultSize)
	}
	for _, want := range []string{"latin american", "politics", "indians", "african american"} {
		if !c.Has(want) {
			t.Errorf("cloud should contain %q; got %s", want, c.String())
		}
	}
	if c.Has("american") {
		t.Error("query term must be excluded")
	}
	if c.Has("chemistry") {
		t.Error("non-result terms must not appear")
	}
}

func TestSubsumption(t *testing.T) {
	ix, results := corpus(t)
	c := Compute(ix, results, Options{Exclude: []string{"american"}})
	// "latin" occurs only inside "latin american": the unigram is
	// subsumed by the bigram.
	if c.Has("latin") {
		t.Errorf("unigram 'latin' should be subsumed by 'latin american': %s", c.String())
	}
	kept := Compute(ix, results, Options{Exclude: []string{"american"}, KeepSubsumed: true})
	if !kept.Has("latin") {
		t.Error("KeepSubsumed should retain 'latin'")
	}
}

func TestMinDocsFilter(t *testing.T) {
	ix := textindex.MustNew(textindex.Field{Name: "text", Weight: 1})
	for i := int64(1); i <= 10; i++ {
		text := "shared theme words"
		if i == 1 {
			text += " singleton"
		}
		if err := ix.Add(i, []string{text}); err != nil {
			t.Fatal(err)
		}
	}
	ix.Finish()
	ids := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	c := Compute(ix, ids, Options{})
	if c.Has("singleton") {
		t.Error("default MinDocs=2 should drop single-doc terms")
	}
	c = Compute(ix, ids, Options{MinDocs: 1, KeepSubsumed: true})
	if !c.Has("singleton") {
		t.Error("MinDocs=1 should keep singleton")
	}
}

func TestMaxTermsAndWeights(t *testing.T) {
	ix, results := corpus(t)
	c := Compute(ix, results, Options{MaxTerms: 5, Exclude: []string{"american"}})
	if len(c.Terms) > 5 {
		t.Fatalf("MaxTerms violated: %d", len(c.Terms))
	}
	// Scores descend; weights within 1..MaxWeight and non-increasing.
	for i := range c.Terms {
		if c.Terms[i].Weight < 1 || c.Terms[i].Weight > MaxWeight {
			t.Errorf("weight out of range: %+v", c.Terms[i])
		}
		if i > 0 {
			if c.Terms[i].Score > c.Terms[i-1].Score {
				t.Error("scores must descend")
			}
			if c.Terms[i].Weight > c.Terms[i-1].Weight {
				t.Error("weights must not increase as score drops")
			}
		}
	}
	if c.Terms[0].Weight != MaxWeight {
		t.Errorf("top term should have max weight, got %d", c.Terms[0].Weight)
	}
}

func TestNumericTermsDropped(t *testing.T) {
	ix := textindex.MustNew(textindex.Field{Name: "text", Weight: 1})
	for i := int64(1); i <= 4; i++ {
		if err := ix.Add(i, []string{"offered 2008 2009 winter quarter"}); err != nil {
			t.Fatal(err)
		}
	}
	ix.Finish()
	c := Compute(ix, []int64{1, 2, 3, 4}, Options{})
	if c.Has("2008") {
		t.Errorf("pure numbers should be dropped: %s", c.String())
	}
	// "winter" is subsumed by the stronger phrase "winter quarter".
	if !c.Has("winter quarter") {
		t.Error("alphabetic phrases should remain")
	}
	// Mixed alnum tokens like cs106 survive.
	if isNumeric("cs106") {
		t.Error("cs106 is not numeric")
	}
	if !isNumeric("2008 2009") {
		t.Error("'2008 2009' is numeric")
	}
}

func TestEmptyResultsAndEmptyCloud(t *testing.T) {
	ix, _ := corpus(t)
	c := Compute(ix, nil, Options{})
	if len(c.Terms) != 0 || c.ResultSize != 0 {
		t.Errorf("empty results should yield empty cloud: %+v", c)
	}
	if c.String() != "" {
		t.Error("empty cloud String should be empty")
	}
}

func TestAlphabeticalAndString(t *testing.T) {
	ix, results := corpus(t)
	c := Compute(ix, results, Options{Exclude: []string{"american"}})
	alpha := c.Alphabetical()
	for i := 1; i < len(alpha); i++ {
		if alpha[i-1].Text > alpha[i].Text {
			t.Fatal("Alphabetical not sorted")
		}
	}
	s := c.String()
	if !strings.Contains(s, "(") {
		t.Errorf("String misses weights: %q", s)
	}
}

// Property: the refinement story holds — the cloud of a subset never
// reports more result docs per term than the superset cloud, and every
// term's ResultDocs is at most the subset size.
func TestCloudCountsBoundedProperty(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed%30) + 5
		ix := textindex.MustNew(textindex.Field{Name: "t", Weight: 1})
		ids := make([]int64, 0, n)
		for i := 0; i < n; i++ {
			id := int64(i + 1)
			if err := ix.Add(id, []string{fmt.Sprintf("theme alpha beta word%d", i%3)}); err != nil {
				return false
			}
			ids = append(ids, id)
		}
		ix.Finish()
		full := Compute(ix, ids, Options{MinDocs: 1})
		half := Compute(ix, ids[:n/2], Options{MinDocs: 1})
		fullCount := map[string]int{}
		for _, tm := range full.Terms {
			if tm.ResultDocs > n {
				return false
			}
			fullCount[tm.Text] = tm.ResultDocs
		}
		for _, tm := range half.Terms {
			if tm.ResultDocs > n/2 {
				return false
			}
			if fc, ok := fullCount[tm.Text]; ok && tm.ResultDocs > fc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// synthCorpus builds a deterministic corpus of docs documents whose words
// follow a skewed draw from a vocabulary of words, and returns the ids of
// every fifth document as the result set, with the word they share.
func synthCorpus(tb testing.TB, docs, words int) (*textindex.Index, []int64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 2, uint64(words-1))
	ix := textindex.MustNew(textindex.Field{Name: "title", Weight: 3}, textindex.Field{Name: "body", Weight: 1})
	var results []int64
	var b strings.Builder
	text := func(n int) string {
		b.Reset()
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "w%d ", zipf.Uint64())
		}
		return b.String()
	}
	for id := int64(1); id <= int64(docs); id++ {
		title := text(4)
		if id%5 == 0 {
			title += "theme"
			results = append(results, id)
		}
		if err := ix.Add(id, []string{title, text(60)}); err != nil {
			tb.Fatal(err)
		}
	}
	ix.Finish()
	return ix, results
}

// BenchmarkCompute times one cloud over 400 of 2,000 documents with a
// 5,000-word vocabulary (about the Small site's widest discover searches).
func BenchmarkCompute(b *testing.B) {
	ix, results := synthCorpus(b, 2000, 5000)
	opts := Options{MaxTerms: 30, Exclude: []string{"theme"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := Compute(ix, results, opts); len(c.Terms) != 30 {
			b.Fatalf("%d terms", len(c.Terms))
		}
	}
}

// TestComputeAllocs gates Compute's allocations: its working memory is
// pooled, so a steady stream of clouds allocates little beyond the
// returned cloud. Counting by term text allocated per distinct term.
func TestComputeAllocs(t *testing.T) {
	ix, results := synthCorpus(t, 2000, 5000)
	opts := Options{MaxTerms: 30, Exclude: []string{"theme"}}
	allocs := testing.AllocsPerRun(20, func() { Compute(ix, results, opts) })
	if allocs > 64 {
		t.Errorf("Compute made %.0f allocs per cloud; the bound is 64", allocs)
	}
}
