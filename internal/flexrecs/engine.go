package flexrecs

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"courserank/internal/matview"
	"courserank/internal/relation"
	"courserank/internal/sqlmini"
)

// Engine executes workflows. Purely relational subtrees (σ, π, ⋈ over
// base tables) are compiled into single SQL statements run by the
// conventional DBMS; extend, recommend and residual operators over
// nested attributes execute as external functions over materialized
// results — the hybrid strategy of paper §3.2.
//
// Compiled statements memoize per workflow SHAPE: template builds
// produce a fresh Step tree per personalized request, but the tree's
// structure — and therefore its SQL text — is stable across requests,
// only the '?' arguments change. The engine keys a prepared *Stmt on a
// structural fingerprint of the subtree, so a repeated workflow skips
// string re-rendering AND the SQL engine's text-keyed cache lookup:
// per request only argument gathering, bind and execute remain.
type Engine struct {
	sql *sqlmini.Engine

	compiled      sync.Map // shape fingerprint → *compiledSQL
	compiledN     atomic.Int64
	compileHits   atomic.Uint64
	compileMisses atomic.Uint64

	// views backs Materialize steps (materialize.go); nil = transparent.
	views     *matview.Registry
	matHits   atomic.Uint64
	matStale  atomic.Uint64
	matMisses atomic.Uint64
}

// compiledSQL is one memoized sqlable subtree: its rendered statement
// text and the prepared statement executing it.
type compiledSQL struct {
	sql  string
	stmt *sqlmini.Stmt
}

// compiledCacheMax bounds the shape cache. Deployed sites register a
// fixed handful of strategies, so the bound only guards degenerate
// workloads; past it, new shapes compile per call without caching.
const compiledCacheMax = 256

// NewEngine builds an engine over the database with its own SQL engine
// (and therefore its own plan cache).
func NewEngine(db *relation.DB) *Engine {
	return NewEngineOver(sqlmini.New(db))
}

// NewEngineOver builds an engine over an existing SQL engine, sharing
// its plan cache — the wiring the Site facade uses so FlexRecs, the
// baseline recommenders and ad-hoc queries all reuse one plan per
// statement text.
func NewEngineOver(sql *sqlmini.Engine) *Engine {
	return &Engine{sql: sql}
}

// ForceScan returns a workflow engine whose compiled statements execute
// with the naive full-scan/nested-loop strategy — the forced side of
// planner parity tests. The returned engine shares the database and is
// safe to use concurrently with the planning engine.
func (e *Engine) ForceScan() *Engine {
	return &Engine{sql: e.sql.ForceScan()}
}

// SQL exposes the underlying SQL engine (used by tests and the facade).
func (e *Engine) SQL() *sqlmini.Engine { return e.sql }

// Run validates and executes a workflow, returning its materialized
// result.
func (e *Engine) Run(w *Step) (*Relation, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return e.runStep(w)
}

// sqlable reports whether the subtree compiles to a single SQL
// statement. An OrderBy over a sqlable subtree compiles too — as the
// statement's ORDER BY clause, where the planner can elide it against
// an ordered index — but only an OUTERMOST one: SQL has a single
// ORDER BY, and an order underneath a join or another order cannot be
// expressed in it (compiling would silently drop or hoist the inner
// sort), so those trees keep the step-wise path, which sorts the
// operand before the enclosing operator consumes it.
func sqlable(s *Step) bool {
	switch s.kind {
	case relStep:
		return true
	case selectStep, projectStep:
		return sqlable(s.child)
	case joinStep:
		return sqlable(s.child) && sqlable(s.other) &&
			!containsOrder(s.child) && !containsOrder(s.other)
	case orderStep:
		return sqlable(s.child) && !containsOrder(s.child)
	}
	return false
}

// containsOrder reports whether a sqlable subtree holds an orderStep.
func containsOrder(s *Step) bool {
	switch s.kind {
	case orderStep:
		return true
	case selectStep, projectStep:
		return containsOrder(s.child)
	case joinStep:
		return containsOrder(s.child) || containsOrder(s.other)
	}
	return false
}

// sqlParts accumulates the pieces of a compiled statement.
type sqlParts struct {
	from      string   // "T" or "T JOIN U ON ... JOIN V ON ..."
	conds     []string // WHERE conjuncts, outermost first
	args      []any
	proj      []string // outermost projection wins; empty = *
	orderCol  string   // ORDER BY column; empty = none
	orderDesc bool
}

// gather walks a sqlable subtree, collecting FROM/WHERE/projection.
func gather(s *Step, p *sqlParts) error {
	switch s.kind {
	case relStep:
		p.from = s.table
		return nil
	case selectStep:
		p.conds = append(p.conds, s.cond)
		p.args = append(p.args, s.args...)
		return gather(s.child, p)
	case projectStep:
		if len(p.proj) == 0 {
			p.proj = s.cols
		}
		return gather(s.child, p)
	case joinStep:
		if err := gather(s.child, p); err != nil {
			return err
		}
		var right sqlParts
		if err := gather(s.other, &right); err != nil {
			return err
		}
		if strings.Contains(right.from, " JOIN ") {
			return fmt.Errorf("flexrecs: right side of a join must be a base table")
		}
		p.from += " JOIN " + right.from + " ON " + s.on
		p.conds = append(p.conds, right.conds...)
		p.args = append(p.args, right.args...)
		return nil
	case orderStep:
		p.orderCol, p.orderDesc = s.orderCol, s.desc
		return gather(s.child, p)
	}
	return fmt.Errorf("flexrecs: step %s is not SQL-compilable", s.describe())
}

// CompileSQL renders a sqlable subtree as its SQL statement. It is
// exported so Explain output and tests can show the exact statements
// shipped to the DBMS.
func CompileSQL(s *Step) (string, []any, error) {
	var p sqlParts
	if err := gather(s, &p); err != nil {
		return "", nil, err
	}
	sel := "*"
	if len(p.proj) > 0 {
		sel = strings.Join(p.proj, ", ")
	}
	sql := "SELECT " + sel + " FROM " + p.from
	if len(p.conds) > 0 {
		// Conditions were gathered outermost-first; apply innermost first
		// for readability (order is irrelevant under AND).
		for i, j := 0, len(p.conds)-1; i < j; i, j = i+1, j-1 {
			p.conds[i], p.conds[j] = p.conds[j], p.conds[i]
		}
		sql += " WHERE " + strings.Join(p.conds, " AND ")
	}
	if p.orderCol != "" {
		sql += " ORDER BY " + p.orderCol
		if p.orderDesc {
			sql += " DESC"
		}
	}
	// Placeholder args attach in the same outermost-first order the
	// conditions were gathered, so reverse them alongside.
	args := make([]any, 0, len(p.args))
	for i := len(p.args) - 1; i >= 0; i-- {
		args = append(args, p.args[i])
	}
	return sql, args, nil
}

// shapeKey writes a structural fingerprint of a sqlable subtree:
// operator kinds and their SQL text fragments, excluding argument
// values. Two trees with equal fingerprints compile to identical SQL.
func shapeKey(s *Step, b *strings.Builder) {
	switch s.kind {
	case relStep:
		b.WriteString("R|")
		b.WriteString(s.table)
		b.WriteByte(0)
	case selectStep:
		b.WriteString("S|")
		b.WriteString(s.cond)
		b.WriteByte(0)
		shapeKey(s.child, b)
	case projectStep:
		b.WriteString("P|")
		for _, c := range s.cols {
			b.WriteString(c)
			b.WriteByte(1)
		}
		b.WriteByte(0)
		shapeKey(s.child, b)
	case joinStep:
		b.WriteString("J|")
		b.WriteString(s.on)
		b.WriteByte(0)
		shapeKey(s.child, b)
		shapeKey(s.other, b)
	case orderStep:
		b.WriteString("O|")
		b.WriteString(s.orderCol)
		if s.desc {
			b.WriteString("|D")
		}
		b.WriteByte(0)
		shapeKey(s.child, b)
	}
}

// gatherShapeArgs collects the subtree's placeholder arguments in the
// same traversal order gather uses; CompileSQL reverses its gathered
// list, so callers reverse this one identically.
func gatherShapeArgs(s *Step, args []any) []any {
	switch s.kind {
	case selectStep:
		args = append(args, s.args...)
		return gatherShapeArgs(s.child, args)
	case projectStep, orderStep:
		return gatherShapeArgs(s.child, args)
	case joinStep:
		args = gatherShapeArgs(s.child, args)
		return gatherShapeArgs(s.other, args)
	}
	return args
}

// compiledFor resolves a sqlable subtree to its memoized prepared
// statement, compiling and preparing on first sight of the shape.
func (e *Engine) compiledFor(s *Step) (*compiledSQL, error) {
	var b strings.Builder
	shapeKey(s, &b)
	key := b.String()
	if v, ok := e.compiled.Load(key); ok {
		e.compileHits.Add(1)
		return v.(*compiledSQL), nil
	}
	e.compileMisses.Add(1)
	sql, _, err := CompileSQL(s)
	if err != nil {
		return nil, err
	}
	st, err := e.sql.Prepare(sql)
	if err != nil {
		return nil, fmt.Errorf("flexrecs: compiling %q: %w", sql, err)
	}
	cs := &compiledSQL{sql: sql, stmt: st}
	if e.compiledN.Load() < compiledCacheMax {
		if _, loaded := e.compiled.LoadOrStore(key, cs); !loaded {
			e.compiledN.Add(1)
		}
	}
	return cs, nil
}

// CompileStats reports the workflow-shape compile cache's counters: a
// hit means a request skipped SQL re-rendering and statement lookup
// entirely, going straight to bind + execute.
func (e *Engine) CompileStats() (hits, misses uint64) {
	return e.compileHits.Load(), e.compileMisses.Load()
}

func (e *Engine) runSQL(s *Step) (*Relation, error) {
	cs, err := e.compiledFor(s)
	if err != nil {
		return nil, err
	}
	args := gatherShapeArgs(s, nil)
	for i, j := 0, len(args)-1; i < j; i, j = i+1, j-1 {
		args[i], args[j] = args[j], args[i]
	}
	res, err := cs.stmt.Query(args...)
	if err != nil {
		return nil, fmt.Errorf("flexrecs: executing %q: %w", cs.sql, err)
	}
	rel := &Relation{Cols: res.Columns, Rows: make([][]any, len(res.Rows))}
	for i, r := range res.Rows {
		rel.Rows[i] = r
	}
	return rel, nil
}

func (e *Engine) runStep(s *Step) (*Relation, error) {
	if sqlable(s) {
		return e.runSQL(s)
	}
	return e.applyStep(s, e.runStep)
}

// applyStep executes one non-sqlable operator, obtaining operand
// relations through run — e.runStep normally, the instrumented
// recursion under RunAnalyze.
func (e *Engine) applyStep(s *Step, run func(*Step) (*Relation, error)) (*Relation, error) {
	switch s.kind {
	case selectStep:
		child, err := run(s.child)
		if err != nil {
			return nil, err
		}
		expr, err := sqlmini.ParseExpr(s.cond, s.args...)
		if err != nil {
			return nil, err
		}
		eval := sqlmini.Evaluator(expr, child.Cols)
		out := &Relation{Cols: child.Cols}
		for _, row := range child.Rows {
			v, err := eval(row)
			if err != nil {
				return nil, err
			}
			if relation.Truthy(v) {
				out.Rows = append(out.Rows, row)
			}
		}
		return out, nil

	case projectStep:
		child, err := run(s.child)
		if err != nil {
			return nil, err
		}
		idx := make([]int, len(s.cols))
		for i, c := range s.cols {
			ci, ok := child.Col(c)
			if !ok {
				return nil, fmt.Errorf("flexrecs: project: no column %q", c)
			}
			idx[i] = ci
		}
		out := &Relation{Cols: append([]string(nil), s.cols...), Rows: make([][]any, len(child.Rows))}
		for i, row := range child.Rows {
			nr := make([]any, len(idx))
			for j, ci := range idx {
				nr[j] = row[ci]
			}
			out.Rows[i] = nr
		}
		return out, nil

	case joinStep:
		left, err := run(s.child)
		if err != nil {
			return nil, err
		}
		right, err := run(s.other)
		if err != nil {
			return nil, err
		}
		return joinRelations(left, right, s.on)

	case extendStep:
		child, err := run(s.child)
		if err != nil {
			return nil, err
		}
		return extend(child, s.groupBy, s.keyCol, s.valCol, s.as)

	case recommendStep:
		target, err := run(s.child)
		if err != nil {
			return nil, err
		}
		ref, err := run(s.other)
		if err != nil {
			return nil, err
		}
		return recommend(target, ref, s.cmp, s.scoreAs)

	case blendStep:
		left, err := run(s.child)
		if err != nil {
			return nil, err
		}
		right, err := run(s.other)
		if err != nil {
			return nil, err
		}
		return blend(left, right, s.blendKey, s.scoreAs, s.wL, s.wR)

	case topStep:
		if s.child.kind == recommendStep {
			// Fuse ▷ with the following top-k: score everything but sort
			// and materialize only the k survivors. Recommend feeding Top
			// is the shape every shipped strategy ends with, and the fused
			// path skips the whole-catalog stable sort plus one output row
			// per discarded candidate.
			target, err := run(s.child.child)
			if err != nil {
				return nil, err
			}
			ref, err := run(s.child.other)
			if err != nil {
				return nil, err
			}
			return recommendTop(target, ref, s.child.cmp, s.child.scoreAs, s.k)
		}
		child, err := run(s.child)
		if err != nil {
			return nil, err
		}
		if len(child.Rows) > s.k {
			child.Rows = child.Rows[:s.k]
		}
		return child, nil

	case matStep:
		return e.runMat(s)

	case orderStep:
		child, err := run(s.child)
		if err != nil {
			return nil, err
		}
		ci, ok := child.Col(s.orderCol)
		if !ok {
			return nil, fmt.Errorf("flexrecs: order: no column %q", s.orderCol)
		}
		slices.SortStableFunc(child.Rows, func(a, b []any) int {
			c := relation.Compare(a[ci], b[ci])
			if s.desc {
				return -c
			}
			return c
		})
		return child, nil
	}
	return nil, fmt.Errorf("flexrecs: cannot execute step %s", s.describe())
}

// joinRelations joins two materialized relations on a SQL condition
// evaluated over the concatenated row. Column names are the
// concatenation of both sides' names; ambiguous references in the
// condition are an error surfaced by the evaluator. Equality conjuncts
// between the two sides execute as a build/probe hash join — the same
// strategy the sqlmini planner applies to base-table joins — with the
// remaining conjuncts as a residual filter; without any equi key the
// join falls back to a nested loop.
func joinRelations(left, right *Relation, on string) (*Relation, error) {
	expr, err := sqlmini.ParseExpr(on)
	if err != nil {
		return nil, err
	}
	cols := append(append([]string{}, left.Cols...), right.Cols...)
	out := &Relation{Cols: cols}

	var leftKeys, rightKeys []int
	var residual []sqlmini.Expr
	for _, c := range sqlmini.SplitConjuncts(expr) {
		if li, ri, ok := equiColumns(c, left, right); ok {
			leftKeys = append(leftKeys, li)
			rightKeys = append(rightKeys, ri)
			continue
		}
		residual = append(residual, c)
	}
	evals := make([]func([]any) (any, error), len(residual))
	for i, c := range residual {
		evals[i] = sqlmini.Evaluator(c, cols)
	}
	pass := func(row []any) (bool, error) {
		for _, ev := range evals {
			v, err := ev(row)
			if err != nil {
				return false, err
			}
			if !relation.Truthy(v) {
				return false, nil
			}
		}
		return true, nil
	}

	if len(leftKeys) > 0 {
		buckets := make(map[string][][]any, len(right.Rows))
		for _, r := range right.Rows {
			k, ok, err := encodeJoinKey(r, rightKeys)
			if err != nil {
				return nil, err
			}
			if ok {
				buckets[k] = append(buckets[k], r)
			}
		}
		for _, l := range left.Rows {
			k, ok, err := encodeJoinKey(l, leftKeys)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			for _, r := range buckets[k] {
				row := make([]any, 0, len(l)+len(r))
				row = append(row, l...)
				row = append(row, r...)
				keep, err := pass(row)
				if err != nil {
					return nil, err
				}
				if keep {
					out.Rows = append(out.Rows, row)
				}
			}
		}
		return out, nil
	}

	for _, l := range left.Rows {
		for _, r := range right.Rows {
			row := make([]any, 0, len(l)+len(r))
			row = append(row, l...)
			row = append(row, r...)
			keep, err := pass(row)
			if err != nil {
				return nil, err
			}
			if keep {
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out, nil
}

// equiColumns recognizes an "l = r" conjunct joining the two relations,
// returning the column positions on each side. References resolve
// case-insensitively by unqualified name; a name that is ambiguous —
// duplicated within a side or present on both sides — disqualifies the
// conjunct, leaving it to the residual evaluator, which raises the same
// "ambiguous column" error the nested loop always has.
func equiColumns(c sqlmini.Expr, left, right *Relation) (int, int, bool) {
	b, ok := c.(*sqlmini.Binary)
	if !ok || b.Op != "=" {
		return 0, 0, false
	}
	lr, lok := b.L.(*sqlmini.Ref)
	rr, rok := b.R.(*sqlmini.Ref)
	if !lok || !rok || lr.Qual != "" || rr.Qual != "" {
		return 0, 0, false
	}
	if li, ok := colUnique(left, lr.Name); ok && !colPresent(right, lr.Name) {
		if ri, ok := colUnique(right, rr.Name); ok && !colPresent(left, rr.Name) {
			return li, ri, true
		}
		return 0, 0, false
	}
	if li, ok := colUnique(left, rr.Name); ok && !colPresent(right, rr.Name) {
		if ri, ok := colUnique(right, lr.Name); ok && !colPresent(left, lr.Name) {
			return li, ri, true
		}
	}
	return 0, 0, false
}

// colUnique resolves name within one relation, requiring exactly one
// case-insensitive match.
func colUnique(r *Relation, name string) (int, bool) {
	found := -1
	for i, c := range r.Cols {
		if strings.EqualFold(c, name) {
			if found >= 0 {
				return 0, false
			}
			found = i
		}
	}
	return found, found >= 0
}

func colPresent(r *Relation, name string) bool {
	_, ok := r.Col(name)
	return ok
}

// encodeJoinKey encodes the join-key cells of a row, reporting ok=false
// for NULL keys (which never join). Non-relational cells (nested
// vectors) cannot key a join.
func encodeJoinKey(row []any, cols []int) (string, bool, error) {
	vals := make([]relation.Value, len(cols))
	for i, c := range cols {
		if row[c] == nil {
			return "", false, nil
		}
		v, err := relation.Normalize(row[c])
		if err != nil {
			return "", false, fmt.Errorf("flexrecs: join key column: %w", err)
		}
		vals[i] = v
	}
	return sqlmini.JoinKey(vals), true, nil
}

// extend implements ε: group child rows by groupBy and nest each group's
// (key, value) pairs as a Vector attribute. Rows with NULL key or
// non-numeric value are skipped — a student's unrated comment
// contributes nothing to the rating vector.
func extend(child *Relation, groupBy, keyCol, valCol, as string) (*Relation, error) {
	gi, ok := child.Col(groupBy)
	if !ok {
		return nil, fmt.Errorf("flexrecs: extend: no column %q", groupBy)
	}
	ki, ok := child.Col(keyCol)
	if !ok {
		return nil, fmt.Errorf("flexrecs: extend: no column %q", keyCol)
	}
	vi, ok := child.Col(valCol)
	if !ok {
		return nil, fmt.Errorf("flexrecs: extend: no column %q", valCol)
	}
	// Pre-size each group's vector with one integer-keyed counting pass.
	// The build loop below assigns into interface-keyed Vector maps —
	// extend's dominant cost — and starting every map at its final size
	// removes the growth rehashes entirely. Overcounts (rows the build
	// loop later skips for NULL keys or values) only waste capacity.
	counts := make(map[int64]int32, len(child.Rows)/8+8)
	for _, row := range child.Rows {
		if g, ok := row[gi].(int64); ok {
			counts[g]++
		} else {
			counts = nil // non-int group keys: build unsized below
			break
		}
	}
	// Grouping keys are almost always int64 ids (students, courses); a
	// dedicated map skips interface hashing in this hot loop and falls
	// back to a generic map on the first key of any other type.
	var (
		order     []relation.Value
		intGroups = map[int64]Vector{}
		anyGroups map[relation.Value]Vector
	)
	vecFor := func(g relation.Value) Vector {
		if anyGroups == nil {
			if ig, ok := g.(int64); ok {
				vec, seen := intGroups[ig]
				if !seen {
					vec = make(Vector, int(counts[ig])) // counts nil-safe: missing key sizes 0
					intGroups[ig] = vec
					order = append(order, g)
				}
				return vec
			}
			anyGroups = make(map[relation.Value]Vector, len(intGroups))
			for k, v := range intGroups {
				anyGroups[k] = v
			}
		}
		vec, seen := anyGroups[g]
		if !seen {
			vec = Vector{}
			anyGroups[g] = vec
			order = append(order, g)
		}
		return vec
	}
	for _, row := range child.Rows {
		g, err := relation.Normalize(row[gi])
		if err != nil {
			return nil, err
		}
		if g == nil {
			continue
		}
		k, err := relation.Normalize(row[ki])
		if err != nil {
			return nil, err
		}
		if k == nil {
			continue
		}
		var val float64
		switch x := row[vi].(type) {
		case int64:
			val = float64(x)
		case float64:
			val = x
		case nil:
			continue
		default:
			return nil, fmt.Errorf("flexrecs: extend: value column %q is %T, want number", valCol, row[vi])
		}
		vecFor(g)[k] = val
	}
	out := &Relation{Cols: []string{groupBy, as}, Rows: make([][]any, 0, len(order))}
	slab := make([]any, 2*len(order)) // one backing array for every (group, vector) pair
	for i, g := range order {
		nr := slab[2*i : 2*i+2 : 2*i+2]
		nr[0], nr[1] = g, vecFor(g)
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// recommend implements ▷: score every target row against the reference
// set, append the score column, and sort best-first (ties broken by
// original order for determinism).
func recommend(target, ref *Relation, cmp Comparator, scoreAs string) (*Relation, error) {
	if _, exists := target.Col(scoreAs); exists {
		return nil, fmt.Errorf("flexrecs: recommend: target already has column %q", scoreAs)
	}
	score, err := cmp.bind(target, ref)
	if err != nil {
		return nil, err
	}
	out := &Relation{Cols: append(append([]string{}, target.Cols...), scoreAs)}
	out.Rows = make([][]any, len(target.Rows))
	// Carve the output rows from one slab instead of one make per row:
	// recommend runs over whole catalogs, and the per-row slices are the
	// operator's dominant garbage.
	stride := len(target.Cols) + 1
	slab := make([]any, len(target.Rows)*stride)
	for i, row := range target.Rows {
		s, err := score(row)
		if err != nil {
			return nil, err
		}
		var nr []any
		if len(row)+1 == stride {
			nr = slab[:0:stride]
			slab = slab[stride:]
		} else {
			nr = make([]any, 0, len(row)+1)
		}
		nr = append(nr, row...)
		nr = append(nr, s)
		out.Rows[i] = nr
	}
	si := len(out.Cols) - 1
	sortByScoreDesc(out.Rows, si)
	return out, nil
}

// recommendTop is recommend fused with a following top-k. Every target
// row is still scored (so scoring errors surface identically), but only
// the k best — ties broken by original position, exactly the prefix a
// stable best-first sort would keep — are materialized as output rows.
// The selection runs a binary-search insertion into a k-bounded list:
// for the catalog-sized inputs and ten-to-fifty k the strategies use,
// that replaces an O(n log n) interface-typed sort with O(n log k)
// float compares and shrinks the output slab from n rows to k.
func recommendTop(target, ref *Relation, cmp Comparator, scoreAs string, k int) (*Relation, error) {
	if k <= 0 || k*4 >= len(target.Rows) {
		// Nothing (or too little) to discard: the fused path saves only
		// when most candidates drop, so keep the plain sort's behavior.
		out, err := recommend(target, ref, cmp, scoreAs)
		if err != nil {
			return nil, err
		}
		if len(out.Rows) > k {
			out.Rows = out.Rows[:k]
		}
		return out, nil
	}
	if _, exists := target.Col(scoreAs); exists {
		return nil, fmt.Errorf("flexrecs: recommend: target already has column %q", scoreAs)
	}
	score, err := cmp.bind(target, ref)
	if err != nil {
		return nil, err
	}
	type scored struct {
		idx int
		s   float64
	}
	// kept stays sorted best-first on (score desc, index asc); better
	// mirrors sortByScoreDesc's comparator, with the index as the
	// stability tiebreak.
	better := func(a, b scored) bool {
		if a.s != b.s {
			return a.s > b.s
		}
		return a.idx < b.idx
	}
	kept := make([]scored, 0, k)
	for i, row := range target.Rows {
		s, err := score(row)
		if err != nil {
			return nil, err
		}
		cand := scored{idx: i, s: s}
		if len(kept) == k && !better(cand, kept[k-1]) {
			continue
		}
		lo, hi := 0, len(kept)
		for lo < hi {
			mid := (lo + hi) / 2
			if better(cand, kept[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if len(kept) < k {
			kept = append(kept, scored{})
		}
		copy(kept[lo+1:], kept[lo:])
		kept[lo] = cand
	}
	out := &Relation{Cols: append(append([]string{}, target.Cols...), scoreAs)}
	out.Rows = make([][]any, len(kept))
	stride := len(target.Cols) + 1
	slab := make([]any, len(kept)*stride)
	for i, sc := range kept {
		row := target.Rows[sc.idx]
		var nr []any
		if len(row)+1 == stride {
			nr = slab[:0:stride]
			slab = slab[stride:]
		} else {
			nr = make([]any, 0, len(row)+1)
		}
		nr = append(nr, row...)
		nr = append(nr, sc.s)
		out.Rows[i] = nr
	}
	return out, nil
}

// sortByScoreDesc stably sorts rows best-first on the float score
// column, without the reflection-based swapper of sort.SliceStable —
// these sorts run over whole catalogs per recommendation.
func sortByScoreDesc(rows [][]any, si int) {
	slices.SortStableFunc(rows, func(a, b []any) int {
		av, bv := a[si].(float64), b[si].(float64)
		switch {
		case av > bv:
			return -1
		case av < bv:
			return 1
		}
		return 0
	})
}

// blend implements the blend operator: rows of two scored relations are
// matched on key; output score = wL·scoreL + wR·scoreR with missing
// sides contributing 0. Output rows order by blended score descending.
func blend(left, right *Relation, key, scoreCol string, wL, wR float64) (*Relation, error) {
	lk, ok := left.Col(key)
	if !ok {
		return nil, fmt.Errorf("flexrecs: blend: left has no column %q", key)
	}
	ls, ok := left.Col(scoreCol)
	if !ok {
		return nil, fmt.Errorf("flexrecs: blend: left has no column %q", scoreCol)
	}
	rk, ok := right.Col(key)
	if !ok {
		return nil, fmt.Errorf("flexrecs: blend: right has no column %q", key)
	}
	rs, ok := right.Col(scoreCol)
	if !ok {
		return nil, fmt.Errorf("flexrecs: blend: right has no column %q", scoreCol)
	}
	rightScore := map[relation.Value]float64{}
	for _, row := range right.Rows {
		k, err := relation.Normalize(row[rk])
		if err != nil {
			return nil, err
		}
		w, err := toWeight(row[rs])
		if err != nil {
			return nil, err
		}
		rightScore[k] = w
	}
	out := &Relation{Cols: append([]string(nil), left.Cols...)}
	seen := map[relation.Value]bool{}
	for _, row := range left.Rows {
		k, err := relation.Normalize(row[lk])
		if err != nil {
			return nil, err
		}
		seen[k] = true
		lw, err := toWeight(row[ls])
		if err != nil {
			return nil, err
		}
		nr := append([]any(nil), row...)
		nr[ls] = wL*lw + wR*rightScore[k]
		out.Rows = append(out.Rows, nr)
	}
	// Right-only rows: key and blended score, other columns NULL.
	for _, row := range right.Rows {
		k, err := relation.Normalize(row[rk])
		if err != nil {
			return nil, err
		}
		if seen[k] {
			continue
		}
		nr := make([]any, len(out.Cols))
		nr[lk] = k
		nr[ls] = wR * rightScore[k]
		out.Rows = append(out.Rows, nr)
	}
	sortByScoreDesc(out.Rows, ls)
	return out, nil
}

// Explain renders the workflow plan: operator tree with SQL-compiled
// subtrees shown as the exact statements shipped to the DBMS, each
// followed by the physical plan the SQL engine's planner chose for it
// (access paths, join algorithms, pushed predicates).
func (e *Engine) Explain(w *Step) string {
	var b strings.Builder
	e.explain(w, 0, &b)
	return b.String()
}

func (e *Engine) explain(s *Step, depth int, b *strings.Builder) {
	indent := strings.Repeat("  ", depth)
	if sqlable(s) {
		sql, args, err := CompileSQL(s)
		if err != nil {
			fmt.Fprintf(b, "%s!error: %v\n", indent, err)
			return
		}
		if len(args) > 0 {
			fmt.Fprintf(b, "%sSQL> %s  -- args %v\n", indent, sql, args)
		} else {
			fmt.Fprintf(b, "%sSQL> %s\n", indent, sql)
		}
		if plan, err := e.sql.Explain(sql, args...); err == nil {
			for _, line := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
				fmt.Fprintf(b, "%s  | %s\n", indent, line)
			}
		}
		return
	}
	if s.kind == matStep {
		fmt.Fprintf(b, "%s%s\n", indent, e.explainMat(s))
		e.explain(s.child, depth+1, b)
		return
	}
	fmt.Fprintf(b, "%s%s\n", indent, s.describe())
	if s.child != nil {
		e.explain(s.child, depth+1, b)
	}
	if s.other != nil {
		e.explain(s.other, depth+1, b)
	}
}
