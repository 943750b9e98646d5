// Package cloud computes Data Clouds (paper §3.1): tag clouds whose
// "tags" are the most significant terms found in the results of a keyword
// search over the database. Terms are scored by contrasting their
// frequency inside the result set against the whole corpus, so the cloud
// surfaces concepts that characterize *these* results ("Latin American",
// "Indians", "politics" for the query "American") rather than globally
// common words. Cloud terms are hyperlink-like handles for refinement:
// clicking one narrows the search (Figure 3 → Figure 4).
package cloud

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"courserank/internal/textindex"
)

// Term is one cloud entry.
type Term struct {
	Text       string  // display text, e.g. "latin american"
	ResultDocs int     // result documents containing the term
	Score      float64 // significance score (higher = more characteristic)
	Weight     int     // display bucket 1..MaxWeight (font size)
}

// MaxWeight is the number of display size buckets.
const MaxWeight = 5

// Options tunes cloud computation. The zero value selects sensible
// defaults (40 terms, minimum 2 result docs, subsumption on).
type Options struct {
	// MaxTerms caps the cloud size; 0 means 40.
	MaxTerms int
	// MinDocs drops terms appearing in fewer result documents; 0 means 2
	// (a term seen once is noise, not a theme).
	MinDocs int
	// Exclude removes the given terms (typically the query's own terms);
	// matching is on tokenized form.
	Exclude []string
	// KeepSubsumed retains unigrams that occur almost exclusively inside
	// a selected bigram (by default "latin" is dropped when nearly all of
	// its result occurrences are inside "latin american").
	KeepSubsumed bool
}

func (o Options) maxTerms() int {
	if o.MaxTerms <= 0 {
		return 40
	}
	return o.MaxTerms
}

func (o Options) minDocs() int {
	if o.MinDocs <= 0 {
		return 2
	}
	return o.MinDocs
}

// Cloud is a computed data cloud, terms ordered by descending score.
type Cloud struct {
	Terms      []Term
	ResultSize int // number of result documents summarized
}

// Compute builds the data cloud for a set of result document ids over the
// given index. Each term's significance is
//
//	score = rdf × log(1 + N/df)
//
// where rdf counts result documents containing the term, df counts corpus
// documents, and N is the corpus size — result-frequency damped by
// corpus-rarity, the classic "significant terms" contrast. Ties in score
// go to the alphabetically first term.
//
// Counting is keyed by term id: one textindex.CountTerms pass over the
// result documents' forward entries yields every term's rdf and df
// without hashing or re-tokenizing a term. The strongest MaxTerms candidates are then
// kept by a bounded selection, so the cost is linear in the result
// documents' term entries (their postings) plus O(candidates × log
// MaxTerms), and steady-state calls allocate only the returned cloud.
func Compute(ix *textindex.Index, docIDs []int64, opts Options) *Cloud {
	n := float64(ix.DocCount())
	var exBuf [4]int32
	excluded := exBuf[:0]
	for _, t := range opts.Exclude {
		if id, ok := ix.TermID(t); ok {
			excluded = append(excluded, id)
		}
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.counts = ix.CountTerms(docIDs, sc.counts[:0])

	minDocs := opts.minDocs()
	cands := sc.cands[:0]
	bigramMax := sc.bigramMax
	for _, tc := range sc.counts {
		if slices.Contains(excluded, tc.ID) {
			// Excluded phrases subsume too: refining by "african
			// american" must not resurface the bare "african".
			noteBigram(bigramMax, tc.Text, tc.ResultDocs)
			continue
		}
		if int(tc.ResultDocs) < minDocs || isNumeric(tc.Text) {
			continue
		}
		score := float64(tc.ResultDocs) * math.Log(1+n/float64(tc.DocFreq))
		cands = append(cands, cand{text: tc.Text, rdf: tc.ResultDocs, score: score})
	}

	// Subsumption: a unigram that occurs (almost) only inside a candidate
	// bigram is redundant — the bigram carries the concept.
	if !opts.KeepSubsumed {
		for _, c := range cands {
			noteBigram(bigramMax, c.text, c.rdf)
		}
		kept := cands[:0]
		for _, c := range cands {
			if strings.IndexByte(c.text, ' ') < 0 {
				if bm := bigramMax[c.text]; bm > 0 && float64(bm) >= 0.8*float64(c.rdf) {
					continue
				}
			}
			kept = append(kept, c)
		}
		cands = kept
	}
	clear(bigramMax)

	top := selectTop(cands, opts.maxTerms())
	sc.cands = cands

	out := &Cloud{ResultSize: len(docIDs), Terms: make([]Term, len(top))}
	if len(top) == 0 {
		return out
	}
	// Weight buckets: linear split of the score range, so the strongest
	// theme renders largest.
	lo, hi := top[len(top)-1].score, top[0].score
	span := hi - lo
	for i, c := range top {
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
		out.Terms[i] = Term{Text: c.text, ResultDocs: int(c.rdf), Score: c.score, Weight: w}
	}
	return out
}

// cand is a term that passed the filters, with its score.
type cand struct {
	text  string
	rdf   int32
	score float64
}

// better orders candidates by descending score, then ascending text.
func (c cand) better(d cand) bool {
	if c.score != d.score {
		return c.score > d.score
	}
	return c.text < d.text
}

// scratch is the per-call working memory of Compute, pooled so that a
// steady stream of clouds allocates none of it.
type scratch struct {
	counts    []textindex.TermCount
	cands     []cand
	bigramMax map[string]int32 // word → largest rdf of a bigram holding it
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{bigramMax: make(map[string]int32)}
}}

// noteBigram records a bigram's rdf against both of its words.
func noteBigram(bigramMax map[string]int32, text string, rdf int32) {
	if i := strings.IndexByte(text, ' '); i > 0 {
		for _, w := range [2]string{text[:i], text[i+1:]} {
			if rdf > bigramMax[w] {
				bigramMax[w] = rdf
			}
		}
	}
}

// selectTop reorders cands so that its first min(k, len) entries are the
// best k in order, and returns them. It keeps a bounded min-heap (worst
// kept candidate at the root) in cands' prefix, so no more than k
// candidates are ever ordered against each other.
func selectTop(cands []cand, k int) []cand {
	if k > len(cands) {
		k = len(cands)
	}
	h := cands[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for _, c := range cands[k:] {
		if k > 0 && c.better(h[0]) {
			h[0] = c
			siftDown(h, 0)
		}
	}
	// Pop the worst to the back until the prefix is sorted best-first.
	for end := k - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], 0)
	}
	return h
}

// siftDown restores the heap order below position i: every parent is
// worse than its children.
func siftDown(h []cand, i int) {
	for {
		worst, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[worst].better(h[l]) {
			worst = l
		}
		if r < len(h) && h[worst].better(h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// isNumeric reports whether the term has no letter a–z in any of its
// tokens — years and section numbers are not useful cloud themes.
func isNumeric(term string) bool {
	for i := 0; i < len(term); i++ {
		if c := term[i]; c >= 'a' && c <= 'z' {
			return false
		}
	}
	return true
}

// Has reports whether the cloud contains the term (tokenized form).
func (c *Cloud) Has(term string) bool {
	want := strings.Join(textindex.Tokenize(term), " ")
	for _, t := range c.Terms {
		if t.Text == want {
			return true
		}
	}
	return false
}

// Alphabetical returns the terms sorted for display, the way classic tag
// clouds lay out alphabetically with size encoding importance.
func (c *Cloud) Alphabetical() []Term {
	out := append([]Term(nil), c.Terms...)
	sort.Slice(out, func(a, b int) bool { return out[a].Text < out[b].Text })
	return out
}

// String renders the cloud compactly as "term(weight)" entries in
// alphabetical order.
func (c *Cloud) String() string {
	var b strings.Builder
	for i, t := range c.Alphabetical() {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(t.Text)
		b.WriteByte('(')
		b.WriteByte(byte('0' + t.Weight))
		b.WriteByte(')')
	}
	return b.String()
}
