package textindex

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Field declares one weighted document field. Weights express how much a
// term occurrence in this field contributes to relevance — the paper's
// question "should a course that mentions Java in its title score the
// same as one that mentions it in the comments?" (§3.1) is answered by
// giving the title a higher weight.
type Field struct {
	Name   string
	Weight float64
}

// posting records one (document, field) occurrence count of a term.
type posting struct {
	doc   int32 // ordinal into Index.docs
	field uint8
	freq  int32
}

// docEntry is the per-document state.
type docEntry struct {
	id       int64
	fieldLen []int32 // tokens per field
	terms    []int32 // forward index: distinct term ids of all fields, ascending
}

// Index is an inverted index over documents with weighted fields. Add all
// documents, then Finish once before searching; the index is then safe
// for concurrent readers.
type Index struct {
	mu       sync.RWMutex
	fields   []Field
	fieldIdx map[string]int

	vocab    map[string]int32
	words    []string
	df       []int32     // term id → number of docs containing it
	postings [][]posting // term id → postings, in doc-ordinal order

	docs     []docEntry
	byID     map[int64]int32
	totalLen []int64 // per-field token totals, for BM25F length norm
	finished bool

	slots sync.Pool // *[]int32 scratch tables for CountTerms
}

// New creates an index with the given fields. At least one field is
// required; weights must be positive.
func New(fields ...Field) (*Index, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("textindex: at least one field required")
	}
	if len(fields) > 250 {
		return nil, fmt.Errorf("textindex: too many fields")
	}
	ix := &Index{
		fields:   append([]Field(nil), fields...),
		fieldIdx: make(map[string]int, len(fields)),
		vocab:    make(map[string]int32),
		byID:     make(map[int64]int32),
		totalLen: make([]int64, len(fields)),
	}
	for i, f := range fields {
		if f.Weight <= 0 {
			return nil, fmt.Errorf("textindex: field %q must have positive weight", f.Name)
		}
		key := strings.ToLower(f.Name)
		if _, dup := ix.fieldIdx[key]; dup {
			return nil, fmt.Errorf("textindex: duplicate field %q", f.Name)
		}
		ix.fieldIdx[key] = i
	}
	return ix, nil
}

// MustNew is New that panics on error; for statically known field sets.
func MustNew(fields ...Field) *Index {
	ix, err := New(fields...)
	if err != nil {
		panic(err)
	}
	return ix
}

// Fields returns the field definitions.
func (ix *Index) Fields() []Field { return append([]Field(nil), ix.fields...) }

func (ix *Index) intern(term string) int32 {
	if id, ok := ix.vocab[term]; ok {
		return id
	}
	// Tokenize returns slices into the document's lowered text; clone
	// before storing so the vocabulary doesn't pin whole documents.
	term = strings.Clone(term)
	id := int32(len(ix.words))
	ix.vocab[term] = id
	ix.words = append(ix.words, term)
	ix.df = append(ix.df, 0)
	ix.postings = append(ix.postings, nil)
	return id
}

// Add indexes a document. fieldValues align positionally with the fields
// passed to New; a document id may be added only once.
func (ix *Index) Add(docID int64, fieldValues []string) error {
	if len(fieldValues) != len(ix.fields) {
		return fmt.Errorf("textindex: got %d field values, want %d", len(fieldValues), len(ix.fields))
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.finished {
		return fmt.Errorf("textindex: cannot Add after Finish")
	}
	if _, dup := ix.byID[docID]; dup {
		return fmt.Errorf("textindex: duplicate document id %d", docID)
	}
	ord := int32(len(ix.docs))
	entry := docEntry{id: docID, fieldLen: make([]int32, len(ix.fields))}
	perField := make([]map[int32]int32, len(ix.fields))
	docTerms := make(map[int32]struct{})
	for fi, text := range fieldValues {
		toks := Tokenize(text)
		entry.fieldLen[fi] = int32(len(toks))
		ix.totalLen[fi] += int64(len(toks))
		counts := make(map[int32]int32, len(toks)*2)
		for _, w := range toks {
			counts[ix.intern(w)]++
		}
		for _, bg := range Bigrams(toks) {
			counts[ix.intern(bg)]++
		}
		perField[fi] = counts
		for id := range counts {
			docTerms[id] = struct{}{}
		}
	}
	for fi, counts := range perField {
		for id, c := range counts {
			ix.postings[id] = append(ix.postings[id], posting{doc: ord, field: uint8(fi), freq: c})
		}
	}
	entry.terms = make([]int32, 0, len(docTerms))
	for id := range docTerms {
		entry.terms = append(entry.terms, id)
		ix.df[id]++
	}
	slices.Sort(entry.terms)
	ix.docs = append(ix.docs, entry)
	ix.byID[docID] = ord
	return nil
}

// Finish seals the index and sorts postings for deterministic iteration.
// It is idempotent.
func (ix *Index) Finish() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.finished {
		return
	}
	for _, plist := range ix.postings {
		sort.Slice(plist, func(a, b int) bool {
			if plist[a].doc != plist[b].doc {
				return plist[a].doc < plist[b].doc
			}
			return plist[a].field < plist[b].field
		})
	}
	ix.finished = true
}

// DocCount returns the number of indexed documents.
func (ix *Index) DocCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// DocFreq returns how many documents contain the term (unigram or
// "w1 w2" bigram), matching on the tokenized form.
func (ix *Index) DocFreq(term string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	id, ok := ix.vocab[normalizeTerm(term)]
	if !ok {
		return 0
	}
	return int(ix.df[id])
}

// normalizeTerm canonicalizes a user-supplied term or phrase to the
// indexed form (lowercased tokens joined by single spaces).
func normalizeTerm(term string) string {
	toks := Tokenize(term)
	return strings.Join(toks, " ")
}

// TermID returns the id of a term (unigram or "w1 w2" bigram), matching
// on the tokenized form as DocFreq does.
func (ix *Index) TermID(term string) (int32, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	id, ok := ix.vocab[normalizeTerm(term)]
	return id, ok
}

// TermCount is one term's tally over a set of documents (see CountTerms).
type TermCount struct {
	ID         int32
	Text       string // indexed form: a token or a "w1 w2" bigram
	ResultDocs int32  // documents of the set containing the term
	DocFreq    int32  // documents of the whole corpus containing it
}

// CountTerms tallies, for every term occurring in the given documents,
// how many of them contain it, and appends one TermCount per such term
// to buf in order of first occurrence. A document id listed twice counts
// twice; unknown ids are skipped.
//
// It walks the documents' forward entries (already term ids) under one
// read lock, counting into a pooled slot table of vocabulary size of
// which only the touched slots are reset, so its cost is linear in the
// documents' term entries, not in the vocabulary.
func (ix *Index) CountTerms(docIDs []int64, buf []TermCount) []TermCount {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	// slot[id] is the position in buf of id's tally, plus one; zero
	// means not yet seen.
	sp, _ := ix.slots.Get().(*[]int32)
	if sp == nil || len(*sp) < len(ix.words) {
		s := make([]int32, len(ix.words))
		sp = &s
	}
	slot := *sp
	base := len(buf)
	for _, docID := range docIDs {
		ord, ok := ix.byID[docID]
		if !ok {
			continue
		}
		for _, id := range ix.docs[ord].terms {
			if p := slot[id]; p != 0 {
				buf[p-1].ResultDocs++
				continue
			}
			buf = append(buf, TermCount{ID: id, Text: ix.words[id], ResultDocs: 1, DocFreq: ix.df[id]})
			slot[id] = int32(len(buf))
		}
	}
	for _, tc := range buf[base:] {
		slot[tc.ID] = 0
	}
	ix.slots.Put(sp)
	return buf
}

// Hit is one search result.
type Hit struct {
	DocID int64
	Score float64
}

// Query is a conjunctive keyword query: every keyword and every phrase
// must occur somewhere in a matching document.
type Query struct {
	Keywords []string // single tokens
	Phrases  []string // "w1 w2" bigram phrases
}

// Empty reports whether the query has no terms.
func (q Query) Empty() bool { return len(q.Keywords) == 0 && len(q.Phrases) == 0 }

// Terms returns all query terms in indexed form (keywords then phrases).
func (q Query) Terms() []string {
	out := append([]string(nil), q.Keywords...)
	return append(out, q.Phrases...)
}

// String renders the query in user syntax (phrases quoted).
func (q Query) String() string {
	parts := append([]string(nil), q.Keywords...)
	for _, p := range q.Phrases {
		parts = append(parts, `"`+p+`"`)
	}
	return strings.Join(parts, " ")
}

// ParseQuery splits a query string into keywords and quoted phrases.
// Unquoted multi-word input becomes a conjunction of keywords; quoted
// spans become phrase terms (split into bigram chains when longer than
// two words).
func ParseQuery(s string) Query {
	var q Query
	for {
		open := strings.IndexByte(s, '"')
		if open < 0 {
			break
		}
		closeIdx := strings.IndexByte(s[open+1:], '"')
		if closeIdx < 0 {
			break
		}
		phrase := s[open+1 : open+1+closeIdx]
		toks := Tokenize(phrase)
		switch {
		case len(toks) == 1:
			q.Keywords = append(q.Keywords, toks[0])
		case len(toks) >= 2:
			q.Phrases = append(q.Phrases, Bigrams(toks)...)
		}
		s = s[:open] + " " + s[open+1+closeIdx+1:]
	}
	q.Keywords = append(q.Keywords, Tokenize(s)...)
	return q
}

// bm25 constants (standard defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Search returns documents matching every term of the query, ranked by a
// BM25F-style score in which each field's term frequency is scaled by the
// field weight and normalized by the field length. limit <= 0 returns all
// matches. Results are ordered by descending score, then ascending doc id
// for determinism.
func (ix *Index) Search(q Query, limit int) []Hit {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if q.Empty() || len(ix.docs) == 0 {
		return nil
	}
	terms := make([]int32, 0, len(q.Keywords)+len(q.Phrases))
	for _, t := range q.Terms() {
		id, ok := ix.vocab[normalizeTerm(t)]
		if !ok {
			return nil // conjunctive: an unknown term matches nothing
		}
		terms = append(terms, id)
	}
	// Intersect candidate docs starting from the rarest term.
	sort.Slice(terms, func(a, b int) bool { return ix.df[terms[a]] < ix.df[terms[b]] })
	candidates := docSet(ix.postings[terms[0]])
	for _, t := range terms[1:] {
		if len(candidates) == 0 {
			return nil
		}
		next := make(map[int32]struct{}, len(candidates))
		for _, p := range ix.postings[t] {
			if _, ok := candidates[p.doc]; ok {
				next[p.doc] = struct{}{}
			}
		}
		candidates = next
	}
	if len(candidates) == 0 {
		return nil
	}
	// Score candidates with BM25F.
	n := float64(len(ix.docs))
	avgLen := make([]float64, len(ix.fields))
	for fi := range ix.fields {
		avgLen[fi] = float64(ix.totalLen[fi]) / n
		if avgLen[fi] == 0 {
			avgLen[fi] = 1
		}
	}
	scores := make(map[int32]float64, len(candidates))
	for _, t := range terms {
		df := float64(ix.df[t])
		idf := math.Log(1 + (n-df+0.5)/(df+0.5))
		for _, p := range ix.postings[t] {
			if _, ok := candidates[p.doc]; !ok {
				continue
			}
			fl := float64(ix.docs[p.doc].fieldLen[p.field])
			norm := 1 - bm25B + bm25B*fl/avgLen[p.field]
			wtf := ix.fields[p.field].Weight * float64(p.freq) / norm
			scores[p.doc] += idf * wtf / (bm25K1 + wtf)
		}
	}
	hits := make([]Hit, 0, len(scores))
	for ord, s := range scores {
		hits = append(hits, Hit{DocID: ix.docs[ord].id, Score: s})
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Score != hits[b].Score {
			return hits[a].Score > hits[b].Score
		}
		return hits[a].DocID < hits[b].DocID
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// Count returns the number of documents matching the conjunctive query
// without scoring them.
func (ix *Index) Count(q Query) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if q.Empty() {
		return 0
	}
	terms := make([]int32, 0, 4)
	for _, t := range q.Terms() {
		id, ok := ix.vocab[normalizeTerm(t)]
		if !ok {
			return 0
		}
		terms = append(terms, id)
	}
	sort.Slice(terms, func(a, b int) bool { return ix.df[terms[a]] < ix.df[terms[b]] })
	candidates := docSet(ix.postings[terms[0]])
	for _, t := range terms[1:] {
		next := make(map[int32]struct{}, len(candidates))
		for _, p := range ix.postings[t] {
			if _, ok := candidates[p.doc]; ok {
				next[p.doc] = struct{}{}
			}
		}
		candidates = next
	}
	return len(candidates)
}

func docSet(ps []posting) map[int32]struct{} {
	set := make(map[int32]struct{}, len(ps))
	for _, p := range ps {
		set[p.doc] = struct{}{}
	}
	return set
}

// VocabSize returns the number of distinct indexed terms (unigrams plus
// bigrams).
func (ix *Index) VocabSize() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.words)
}
