package cloud

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"courserank/internal/textindex"
)

// NewRefCorpus exposes the oracle to the external test package.
var NewRefCorpus = newRefCorpus

// referenceCompute is the string-keyed algorithm that Compute replaced,
// kept as a differential oracle: it counts terms in a map keyed by text,
// looks each candidate's df up by text, filters numbers by splitting on
// spaces, and fully sorts the candidates before truncating. It runs in
// stages (RefCorpus.Tally, then RefTally.Cloud) so that one tally and
// one sort can serve a whole grid of option sets.
func referenceCompute(ix *textindex.Index, docIDs []int64, opts Options) *Cloud {
	return newRefCorpus(ix).Tally(docIDs, opts.Exclude).Cloud(opts)
}

// RefCorpus reads each document's terms as text, one document at a
// time, and looks each term's df up by text (re-tokenizing it), keeping
// both; none of the cross-document counting under test is shared with
// the oracle.
type RefCorpus struct {
	ix    *textindex.Index
	terms map[int64][]string
	df    map[string]int
}

func newRefCorpus(ix *textindex.Index) *RefCorpus {
	return &RefCorpus{ix: ix, terms: make(map[int64][]string), df: make(map[string]int)}
}

func (rc *RefCorpus) docFreq(term string) int {
	df, ok := rc.df[term]
	if !ok {
		df = rc.ix.DocFreq(term)
		rc.df[term] = df
	}
	return df
}

func (rc *RefCorpus) docTerms(id int64) []string {
	terms, ok := rc.terms[id]
	if !ok {
		for _, tc := range rc.ix.CountTerms([]int64{id}, nil) {
			terms = append(terms, tc.Text)
		}
		rc.terms[id] = terms
	}
	return terms
}

// RefTally is the oracle's first stage: every result term's rdf, keyed
// by text, and the scored, fully sorted candidates for each MinDocs.
type RefTally struct {
	rc        *RefCorpus
	resultLen int
	excluded  map[string]bool
	rdf       map[string]int
	sorted    map[int][]refCand
}

type refCand struct {
	text  string
	rdf   int
	score float64
}

// Tally counts result documents per term in a map keyed by term text.
func (rc *RefCorpus) Tally(docIDs []int64, exclude []string) *RefTally {
	t := &RefTally{
		rc:        rc,
		resultLen: len(docIDs),
		excluded:  make(map[string]bool, len(exclude)),
		rdf:       make(map[string]int),
		sorted:    make(map[int][]refCand),
	}
	for _, e := range exclude {
		toks := textindex.Tokenize(e)
		if len(toks) > 0 {
			t.excluded[strings.Join(toks, " ")] = true
		}
	}
	for _, id := range docIDs {
		for _, term := range rc.docTerms(id) {
			t.rdf[term]++
		}
	}
	return t
}

// candidates scores the terms that pass the MinDocs, exclusion and
// number filters and sorts all of them by descending score, then
// text. The order does not depend on the options, so one sort serves
// every option set with the same MinDocs.
func (t *RefTally) candidates(minDocs int) []refCand {
	if cands, ok := t.sorted[minDocs]; ok {
		return cands
	}
	n := float64(t.rc.ix.DocCount())
	cands := []refCand{}
	for term, c := range t.rdf {
		if c < minDocs || t.excluded[term] {
			continue
		}
		if referenceIsNumeric(term) {
			continue
		}
		df := t.rc.docFreq(term)
		if df == 0 {
			df = c
		}
		score := float64(c) * math.Log(1+n/float64(df))
		cands = append(cands, refCand{text: term, rdf: c, score: score})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		return cands[a].text < cands[b].text
	})
	t.sorted[minDocs] = cands
	return cands
}

// Cloud finishes the oracle for one option set (its Exclude is the
// tally's): subsumption over the sorted candidates, then truncation to
// MaxTerms and weights.
func (t *RefTally) Cloud(opts Options) *Cloud {
	cands := t.candidates(opts.minDocs())
	if !opts.KeepSubsumed {
		bigramMax := make(map[string]int)
		noteBigram := func(text string, n int) {
			if i := strings.IndexByte(text, ' '); i > 0 {
				for _, w := range [2]string{text[:i], text[i+1:]} {
					if n > bigramMax[w] {
						bigramMax[w] = n
					}
				}
			}
		}
		for _, c := range cands {
			noteBigram(c.text, c.rdf)
		}
		for phrase := range t.excluded {
			noteBigram(phrase, t.rdf[phrase])
		}
		var kept []refCand
		for _, c := range cands {
			if !strings.Contains(c.text, " ") {
				if bm := bigramMax[c.text]; bm > 0 && float64(bm) >= 0.8*float64(c.rdf) {
					continue
				}
			}
			kept = append(kept, c)
		}
		cands = kept
	}

	if len(cands) > opts.maxTerms() {
		cands = cands[:opts.maxTerms()]
	}

	out := &Cloud{ResultSize: t.resultLen, Terms: make([]Term, len(cands))}
	if len(cands) == 0 {
		return out
	}
	lo, hi := cands[len(cands)-1].score, cands[0].score
	span := hi - lo
	for i, c := range cands {
		w := MaxWeight
		if span > 0 {
			w = 1 + int(float64(MaxWeight-1)*(c.score-lo)/span+0.5)
			if w > MaxWeight {
				w = MaxWeight
			}
			if w < 1 {
				w = 1
			}
		}
		out.Terms[i] = Term{Text: c.text, ResultDocs: c.rdf, Score: c.score, Weight: w}
	}
	return out
}

func referenceIsNumeric(term string) bool {
	for _, tok := range strings.Split(term, " ") {
		hasAlpha := false
		for _, r := range tok {
			if r >= 'a' && r <= 'z' {
				hasAlpha = true
				break
			}
		}
		if hasAlpha {
			return false
		}
	}
	return true
}

// DiffClouds describes the first field in which two clouds differ, or
// returns "" when they are identical (scores compared bit for bit).
func DiffClouds(got, want *Cloud) string {
	if got.ResultSize != want.ResultSize {
		return fmt.Sprintf("ResultSize %d, want %d", got.ResultSize, want.ResultSize)
	}
	if len(got.Terms) != len(want.Terms) {
		return fmt.Sprintf("%d terms, want %d\ngot  %s\nwant %s", len(got.Terms), len(want.Terms), got, want)
	}
	for i, g := range got.Terms {
		w := want.Terms[i]
		if g.Text != w.Text || g.ResultDocs != w.ResultDocs ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) || g.Weight != w.Weight {
			return fmt.Sprintf("term %d = %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// OptionGrid is the MaxTerms × KeepSubsumed grid every differential
// test covers.
func OptionGrid(exclude []string) []Options {
	var out []Options
	for _, max := range []int{10, 30, 1000} {
		for _, keep := range []bool{false, true} {
			out = append(out, Options{MaxTerms: max, KeepSubsumed: keep, Exclude: exclude})
		}
	}
	return out
}

// TestComputeMatchesReferenceRandom runs Compute against the oracle on
// random corpora whose vocabulary mixes words, digit tokens and mixed
// tokens, so that scores tie, numbers are filtered, and excluded bigrams
// subsume their words. Result sets repeat ids and name unknown ones.
func TestComputeMatchesReferenceRandom(t *testing.T) {
	words := strings.Fields(`latin american african politics history culture
		indians tribal nations science greek java programming modern
		literature theory 2008 2009 101 101a cs106 winter quarter music art`)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := textindex.MustNew(textindex.Field{Name: "title", Weight: 2}, textindex.Field{Name: "body", Weight: 1})
		docs := 20 + rng.Intn(60)
		vocab := words[:6+rng.Intn(len(words)-6)]
		phrase := func(max int) string {
			k := 1 + rng.Intn(max)
			w := make([]string, k)
			for i := range w {
				w[i] = vocab[rng.Intn(len(vocab))]
			}
			return strings.Join(w, " ")
		}
		for id := int64(1); id <= int64(docs); id++ {
			if err := ix.Add(id, []string{phrase(4), phrase(12)}); err != nil {
				t.Fatal(err)
			}
		}
		ix.Finish()

		for q := 0; q < 8; q++ {
			var ids []int64
			for id := int64(1); id <= int64(docs); id++ {
				if rng.Intn(3) == 0 {
					ids = append(ids, id)
				}
			}
			if len(ids) > 0 && rng.Intn(2) == 0 {
				ids = append(ids, ids[rng.Intn(len(ids))]) // a repeated id
			}
			ids = append(ids, int64(docs)+1+int64(rng.Intn(5))) // an unknown id
			// Excluded: a unigram, bigrams (which subsume), a phrase too
			// long to be indexed and, at times, a word the corpus lacks.
			exclude := []string{phrase(1), phrase(2), phrase(2), phrase(3), "Zebra"}
			grid := append(OptionGrid(exclude), Options{MinDocs: 1}, Options{MinDocs: 4, Exclude: exclude[:2]})
			for _, opts := range grid {
				got, want := Compute(ix, ids, opts), referenceCompute(ix, ids, opts)
				if d := DiffClouds(got, want); d != "" {
					t.Fatalf("seed %d query %d opts %+v: %s", seed, q, opts, d)
				}
			}
		}
	}
}
