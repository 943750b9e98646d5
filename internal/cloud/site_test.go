package cloud_test

import (
	"testing"

	"courserank/internal/catalog"
	"courserank/internal/cloud"
	"courserank/internal/core"
	"courserank/internal/datagen"
	"courserank/internal/search"
	"courserank/internal/textindex"
)

// TestComputeMatchesReferenceSmallSite compares Compute with the
// string-keyed oracle, field for field, on the generated Small site:
// for every course-title term that matches at most a quarter of the
// courses, its search results and up to three refinements of them by
// the query's top cloud terms, each under every option combination.
func TestComputeMatchesReferenceSmallSite(t *testing.T) {
	site, err := core.NewSite()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.Populate(site, datagen.Small()); err != nil {
		t.Fatal(err)
	}
	six, err := site.SearchIndex()
	if err != nil {
		t.Fatal(err)
	}
	ix := six.Text()
	oracle := cloud.NewRefCorpus(ix)

	seen := map[string]bool{}
	var terms []string
	site.Catalog.EachCourse(func(c catalog.Course) bool {
		for _, tok := range textindex.Tokenize(c.Title) {
			if !seen[tok] && ix.DocFreq(tok) <= ix.DocCount()/4 {
				terms = append(terms, tok)
			}
			seen[tok] = true
		}
		return true
	})
	if len(terms) < 20 {
		t.Fatalf("only %d title terms to query", len(terms))
	}

	compare := func(label string, res *search.Results) {
		t.Helper()
		ids, exclude := res.IDs(), res.Query.Terms()
		ref := oracle.Tally(ids, exclude)
		for _, opts := range cloud.OptionGrid(exclude) {
			got, want := cloud.Compute(ix, ids, opts), ref.Cloud(opts)
			if d := cloud.DiffClouds(got, want); d != "" {
				t.Fatalf("%s (%d results) opts %+v: %s", label, res.Total(), opts, d)
			}
		}
	}
	clouds := 0
	for _, term := range terms {
		res := six.Search(term)
		compare(term, res)
		clouds++
		top := cloud.Compute(ix, res.IDs(), cloud.Options{MaxTerms: 3, Exclude: res.Query.Terms()})
		for _, ct := range top.Terms {
			compare(term+" → "+ct.Text, six.Refine(res, ct.Text))
			clouds++
		}
	}
	t.Logf("%d title terms, %d result sets compared under 6 option sets each", len(terms), clouds)
}
