package sqlmini

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"courserank/internal/obs"
	"courserank/internal/relation"
)

// Engine executes SQL statements against a relation.DB. Every SELECT
// passes through the cost-aware planner in planner.go before execution,
// and every statement — one-shot or prepared — shares the engine's plan
// cache. Engine handles are immutable and safe for concurrent use.
type Engine struct {
	db        *relation.DB
	cache     *PlanCache
	forceScan bool
	batchSize int          // 0 means defaultBatch
	tx        *relation.Tx // non-nil on a transaction-bound handle (see txn.go)

	// obsBox is the shared observability slot: derived handles
	// (ForceScan/WithBatchSize/BeginTx) alias the same box, so
	// installing a collector once observes every execution path. A nil
	// load disables recording — the same atomic-pointer nil-check
	// pattern relation.Storage uses for its pluggable backend.
	obsBox *atomic.Pointer[obs.Collector]

	// an is non-nil only on the shadow handle an EXPLAIN ANALYZE
	// execution runs under (analyze.go); the executor checks it with a
	// plain nil test on the hot paths.
	an *analyzeState
}

// New returns an engine bound to db with a fresh plan cache.
func New(db *relation.DB) *Engine {
	return &Engine{db: db, cache: newPlanCache(), obsBox: &atomic.Pointer[obs.Collector]{}}
}

// ForceScan returns a handle over the same database whose SELECTs use
// the naive execution strategy — full table scans, nested-loop joins,
// no predicate pushdown — planning fresh on every call and bypassing
// the plan cache. Parity tests run a forced handle next to the planning
// engine; because handles are immutable, concurrent queries through
// both never race.
func (e *Engine) ForceScan() *Engine {
	return &Engine{db: e.db, forceScan: true, batchSize: e.batchSize, obsBox: e.obsBox}
}

// WithBatchSize returns a handle over the same database whose executor
// pipelines move rows in slabs of n (n <= 0 restores the default). The
// handle gets its own plan cache: plans record their batch size for
// Explain, so sharing cached plans across differently-sized handles
// would mislabel them. Primarily a testing knob — the differential fuzz
// harness runs the same queries at batch sizes 1, 7, and 256 to prove
// slab boundaries never change results.
func (e *Engine) WithBatchSize(n int) *Engine {
	if n < 0 {
		n = 0
	}
	h := &Engine{db: e.db, forceScan: e.forceScan, batchSize: n, obsBox: e.obsBox}
	if e.cache != nil {
		h.cache = newPlanCache()
	}
	return h
}

// batch is the executor's slab size: how many rows move per NextBatch
// dispatch through every cursor in this engine's pipelines.
func (e *Engine) batch() int {
	if e.batchSize > 0 {
		return e.batchSize
	}
	return defaultBatch
}

// DB exposes the underlying database.
func (e *Engine) DB() *relation.DB { return e.db }

// snap is the visibility snapshot this handle reads under: the bound
// transaction's snapshot, or the latest-committed state.
func (e *Engine) snap() relation.Snap {
	if e.tx != nil {
		return e.tx.Snapshot()
	}
	return relation.LatestSnap()
}

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    []relation.Row
}

// Query executes a SELECT, binding placeholders ('?') to args. It is a
// thin wrapper over the prepared-statement path: the plan comes from
// the engine's cache, so a repeated statement text parses and plans
// only once.
func (e *Engine) Query(sql string, args ...any) (*Result, error) {
	en, err := e.entryFor(sql)
	if err != nil {
		return nil, err
	}
	return e.queryEntry(en, args)
}

// Exec executes a non-SELECT statement through the statement cache,
// returning the number of rows affected (or 0 for CREATE TABLE).
func (e *Engine) Exec(sql string, args ...any) (int, error) {
	en, err := e.entryFor(sql)
	if err != nil {
		return 0, err
	}
	return e.execEntry(en, args)
}

// queryEntry binds args and runs a cached SELECT.
func (e *Engine) queryEntry(en *cacheEntry, args []any) (*Result, error) {
	if en.sel == nil {
		return nil, fmt.Errorf("sqlmini: Query requires a SELECT statement")
	}
	params, err := bindArgs(en.nParams, args)
	if err != nil {
		return nil, err
	}
	return e.execSelect(en.sel, params)
}

// execEntry binds args and runs a cached non-SELECT statement.
func (e *Engine) execEntry(en *cacheEntry, args []any) (int, error) {
	if en.sel != nil {
		return 0, fmt.Errorf("sqlmini: use Query for SELECT")
	}
	params, err := bindArgs(en.nParams, args)
	if err != nil {
		return 0, err
	}
	switch s := substStatement(en.ast, params).(type) {
	case *InsertStmt:
		return e.execInsert(s)
	case *UpdateStmt:
		return e.execUpdate(s)
	case *DeleteStmt:
		return e.execDelete(s)
	case *CreateStmt:
		return 0, e.execCreate(s)
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return 0, fmt.Errorf("sqlmini: transaction control needs a stateful endpoint — use Session, or Engine.BeginTx")
	}
	return 0, fmt.Errorf("sqlmini: unsupported statement %T", en.ast)
}

// splitConjuncts flattens a tree of ANDs into its conjuncts.
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// appendJoinKeyVal appends one type-tagged join-key value to b.
// Integral floats normalize to their int64 form so 2.0 joins 2.
func appendJoinKeyVal(b []byte, v relation.Value) []byte {
	if f, ok := v.(float64); ok && f == float64(int64(f)) {
		v = int64(f)
	}
	switch x := v.(type) {
	case int64:
		b = append(b, 'i')
		return strconv.AppendInt(b, x, 10)
	case float64:
		b = append(b, 'f')
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case string:
		b = append(b, 's')
		return append(b, x...)
	case bool:
		if x {
			return append(b, 'b', '1')
		}
		return append(b, 'b', '0')
	default:
		b = append(b, 'o')
		return append(b, fmt.Sprintf("%T:%s", v, relation.Format(v))...)
	}
}

// joinKey encodes join-key values for hash probing — the string form,
// for owners that retain the key (GROUP BY buckets, DISTINCT sets).
func joinKey(vals []relation.Value) string {
	var b []byte
	for i, v := range vals {
		if i > 0 {
			b = append(b, 0)
		}
		b = appendJoinKeyVal(b, v)
	}
	return string(b)
}

// rowKey encodes the join-key values at the given columns into buf's
// storage, reporting false when any is NULL (NULL keys never join).
// The returned slice aliases buf (grown as needed): callers thread it
// back in across rows, and probe loops index their hash maps with the
// map[string(k)] pattern, which the compiler compiles to an
// allocation-free lookup.
func rowKey(row relation.Row, cols []int, buf []byte) ([]byte, bool) {
	b := buf[:0]
	for i, c := range cols {
		if row[c] == nil {
			return b, false
		}
		if i > 0 {
			b = append(b, 0)
		}
		b = appendJoinKeyVal(b, row[c])
	}
	return b, true
}

// outputName picks the result column name for a select item.
func outputName(item SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if r, ok := item.Expr.(*Ref); ok {
		return r.Name
	}
	return item.Expr.String()
}

// expandStars replaces * and t.* items with explicit column references.
func expandStars(items []SelectItem, rs *rowset) ([]SelectItem, error) {
	var out []SelectItem
	for _, item := range items {
		if !item.Star {
			out = append(out, item)
			continue
		}
		found := false
		for _, c := range rs.cols {
			if item.StarQual != "" && !strings.EqualFold(c.qual, item.StarQual) {
				continue
			}
			out = append(out, SelectItem{Expr: &Ref{Qual: c.qual, Name: c.name}, Alias: c.name})
			found = true
		}
		if !found {
			return nil, fmt.Errorf("sqlmini: %s.* matches no table", item.StarQual)
		}
	}
	return out, nil
}

// execSelect runs one prepared SELECT with the given bound parameters.
// Everything parameter-independent — the physical plan, star expansion,
// output naming, expression binding, aggregation mode — happened at
// prepare time; here parameters substitute into copy-on-write shadows
// of the shared structures, the cursor pipeline opens (cursor.go), and
// its rows drain into the projection/aggregation stages below.
func (e *Engine) execSelect(ps *preparedSelect, params []relation.Value) (*Result, error) {
	plan := bindPlan(ps.plan, params)
	if e.an != nil {
		// ANALYZE keys operator stats off the BOUND plan's nodes —
		// bindPlan may shadow-copy nodes to substitute parameters, and
		// the cursors below hold the bound copies.
		e.an.plan = plan
	}

	// Streaming direct projection: a non-aggregate query whose output
	// items are all plain bound columns and whose order needs no sort
	// (none requested, or the pipeline emits it) never materializes the
	// source rows at all — each batch's cells copy straight into the
	// output arena and the pipeline runs transient, so join and
	// permutation slabs recycle instead of accumulating. This is the
	// workhorse path for SELECT col,... FROM t [WHERE ...] feeds.
	if !ps.aggMode && !ps.sel.Distinct && (len(ps.order) == 0 || plan.orderElide) &&
		!(len(plan.joins) == 0 && len(plan.where) == 0 &&
			(plan.scan.access == accessPK || plan.scan.access == accessIndex)) {
		bound := substItems(ps.items, params)
		direct := make([]int, len(bound))
		allDirect := true
		for i, item := range bound {
			if b, ok := item.Expr.(*boundRef); ok {
				direct[i] = b.idx
			} else {
				allDirect = false
				break
			}
		}
		if allDirect {
			cur, err := e.openPlan(plan, false)
			if err != nil {
				return nil, err
			}
			var arena rowArena
			outRows := make([]relation.Row, 0, plan.estOut())
			for {
				batch, err := cur.NextBatch()
				if err != nil {
					cur.Close()
					return nil, err
				}
				if len(batch) == 0 {
					break
				}
				for _, row := range batch {
					out := arena.alloc(len(direct))
					for i, ci := range direct {
						out[i] = row[ci]
					}
					outRows = append(outRows, out)
				}
			}
			cur.Close()
			return e.finishSelect(ps, params, outRows)
		}
	}

	var drained []relation.Row
	if len(plan.joins) == 0 && len(plan.where) == 0 &&
		(plan.scan.access == accessPK || plan.scan.access == accessIndex) {
		// Probe-only plan: the result is key-bounded; materialize it
		// directly and skip the cursor plumbing — this is the prepared
		// point-lookup hot path.
		t, ok := e.db.Table(plan.scan.ref.Name)
		if !ok {
			return nil, fmt.Errorf("sqlmini: unknown table %q", plan.scan.ref.Name)
		}
		var t0 time.Time
		if e.an != nil {
			t0 = time.Now()
		}
		var err error
		drained, err = probeRows(plan.scan, t, &rowset{cols: plan.scan.cols}, e.snap())
		if err != nil {
			return nil, err
		}
		if e.an != nil {
			st := e.an.nodeStat(plan.scan)
			st.ns += int64(time.Since(t0))
			st.rows += int64(len(drained))
			st.batches++
			st.loops++
		}
	} else {
		// retain=true: the drained rows feed aggregation/sort/projection
		// below and must outlive every batch boundary.
		cur, err := e.openPlan(plan, true)
		if err != nil {
			return nil, err
		}
		if drained, err = drainCursor(cur, plan.estOut()); err != nil {
			return nil, err
		}
	}
	rs := &rowset{cols: plan.cols, rows: drained}
	bound := substItems(ps.items, params)

	// Output rows carve from a retained arena — one slab allocation per
	// arenaSlabRows rows instead of one per row. Never reset: Result.Rows
	// escapes to the caller.
	var arena rowArena

	var outRows []relation.Row
	var sourceRows []relation.Row // parallel source row per output row (non-agg)
	var groups [][]relation.Row   // parallel group per output row (agg)

	if ps.aggMode {
		keys := []string{}
		groupMap := map[string][]relation.Row{}
		if len(ps.groupBy) == 0 {
			keys = append(keys, "")
			groupMap[""] = rs.rows
		} else {
			groupBy, _ := substList(ps.groupBy, params)
			vals := make([]relation.Value, len(groupBy))
			for _, row := range rs.rows {
				for i, g := range groupBy {
					v, err := evalScalar(g, row, rs)
					if err != nil {
						return nil, err
					}
					vals[i] = v
				}
				k := joinKey(vals)
				if _, seen := groupMap[k]; !seen {
					keys = append(keys, k)
				}
				groupMap[k] = append(groupMap[k], row)
			}
		}
		having := substExpr(ps.having, params)
		for _, k := range keys {
			group := groupMap[k]
			if having != nil {
				v, err := evalAggregate(having, group, rs)
				if err != nil {
					return nil, err
				}
				if !relation.Truthy(v) {
					continue
				}
			}
			out := arena.alloc(len(bound))
			for i, item := range bound {
				v, err := evalAggregate(item.Expr, group, rs)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			outRows = append(outRows, out)
			groups = append(groups, group)
		}
	} else {
		// Fast path: a projection of plain bound columns copies cells
		// directly, skipping the expression evaluator per cell.
		direct := make([]int, len(bound))
		allDirect := true
		for i, item := range bound {
			if b, ok := item.Expr.(*boundRef); ok {
				direct[i] = b.idx
			} else {
				allDirect = false
				break
			}
		}
		if allDirect {
			outRows = make([]relation.Row, len(rs.rows))
			for ri, row := range rs.rows {
				out := arena.alloc(len(direct))
				for i, ci := range direct {
					out[i] = row[ci]
				}
				outRows[ri] = out
			}
			sourceRows = rs.rows
		} else {
			for _, row := range rs.rows {
				out := arena.alloc(len(bound))
				for i, item := range bound {
					v, err := evalScalar(item.Expr, row, rs)
					if err != nil {
						return nil, err
					}
					out[i] = v
				}
				outRows = append(outRows, out)
				sourceRows = append(sourceRows, row)
			}
		}
	}

	// ORDER BY: keys resolved to output columns at prepare time read the
	// output row; anything else evaluates against the source row (or
	// group, in aggregate mode). When the planner proved the pipeline
	// already emits the sort order (a driver range scan over the sort
	// key), the sort is elided entirely.
	if len(ps.order) > 0 && !ps.plan.orderElide {
		orderExprs := make([]Expr, len(ps.order))
		for j, ob := range ps.order {
			orderExprs[j] = substExpr(ob.expr, params)
		}
		sortKeys := make([][]relation.Value, len(outRows))
		for i := range outRows {
			keys := make([]relation.Value, len(ps.order))
			for j, ob := range ps.order {
				if ob.aliasIdx >= 0 {
					keys[j] = outRows[i][ob.aliasIdx]
					continue
				}
				var v relation.Value
				var err error
				if ps.aggMode {
					v, err = evalAggregate(orderExprs[j], groups[i], rs)
				} else {
					v, err = evalScalar(orderExprs[j], sourceRows[i], rs)
				}
				if err != nil {
					return nil, err
				}
				keys[j] = v
			}
			sortKeys[i] = keys
		}
		idx := make([]int, len(outRows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := sortKeys[idx[a]], sortKeys[idx[b]]
			for j, ob := range ps.order {
				c := relation.Compare(ka[j], kb[j])
				if c == 0 {
					continue
				}
				if ob.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		sorted := make([]relation.Row, len(outRows))
		for i, j := range idx {
			sorted[i] = outRows[j]
		}
		outRows = sorted
	}

	return e.finishSelect(ps, params, outRows)
}

// finishSelect applies the result-shaping trailer — DISTINCT, then
// LIMIT/OFFSET — and packages the Result.
func (e *Engine) finishSelect(ps *preparedSelect, params []relation.Value, outRows []relation.Row) (*Result, error) {
	if ps.sel.Distinct {
		seen := map[string]bool{}
		kept := outRows[:0:0]
		for _, row := range outRows {
			k := joinKey(row)
			if !seen[k] {
				seen[k] = true
				kept = append(kept, row)
			}
		}
		outRows = kept
	}

	if ps.sel.Limit != nil || ps.sel.Offset != nil {
		offset, err := evalIntClause(substExpr(ps.sel.Offset, params), 0)
		if err != nil {
			return nil, err
		}
		limit, err := evalIntClause(substExpr(ps.sel.Limit, params), int64(len(outRows)))
		if err != nil {
			return nil, err
		}
		if offset < 0 {
			offset = 0
		}
		if offset > int64(len(outRows)) {
			offset = int64(len(outRows))
		}
		end := offset + limit
		if limit < 0 || end > int64(len(outRows)) {
			end = int64(len(outRows))
		}
		outRows = outRows[offset:end]
	}

	// Columns are copied so callers can keep or reshape the slice without
	// reaching into the shared prepared statement.
	return &Result{Columns: append([]string(nil), ps.outCols...), Rows: outRows}, nil
}

// evalIntClause evaluates a LIMIT/OFFSET expression, which must reduce to
// an integer without any column references.
func evalIntClause(e Expr, def int64) (int64, error) {
	if e == nil {
		return def, nil
	}
	v, err := evalScalar(e, nil, &rowset{})
	if err != nil {
		return 0, err
	}
	n, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("sqlmini: LIMIT/OFFSET must be an integer, got %v", v)
	}
	return n, nil
}

func (e *Engine) execInsert(st *InsertStmt) (int, error) {
	t, ok := e.db.Table(st.Table)
	if !ok {
		return 0, fmt.Errorf("sqlmini: unknown table %q", st.Table)
	}
	sch := t.Schema()
	colIdx := make([]int, 0, len(st.Cols))
	for _, c := range st.Cols {
		i, ok := sch.Index(c)
		if !ok {
			return 0, fmt.Errorf("sqlmini: table %s has no column %q", st.Table, c)
		}
		colIdx = append(colIdx, i)
	}
	n := 0
	empty := &rowset{}
	for _, exprs := range st.Rows {
		vals := make([]relation.Value, len(exprs))
		for i, ex := range exprs {
			v, err := evalScalar(ex, nil, empty)
			if err != nil {
				return n, err
			}
			vals[i] = v
		}
		var row relation.Row
		if len(st.Cols) == 0 {
			row = vals
		} else {
			if len(vals) != len(colIdx) {
				return n, fmt.Errorf("sqlmini: INSERT has %d values for %d columns", len(vals), len(colIdx))
			}
			row = make(relation.Row, sch.Len())
			for i, ci := range colIdx {
				row[ci] = vals[i]
			}
		}
		var err error
		if e.tx != nil {
			_, err = e.tx.Insert(t, row)
		} else {
			_, err = t.Insert(row)
		}
		if err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// tableRowset builds the resolver environment for UPDATE/DELETE
// predicates: the table's own columns under its own name.
func tableRowset(t *relation.Table) *rowset {
	sch := t.Schema()
	rs := &rowset{cols: make([]colRef, sch.Len())}
	for i := 0; i < sch.Len(); i++ {
		rs.cols[i] = colRef{qual: t.Name(), name: sch.Column(i).Name}
	}
	return rs
}

func (e *Engine) execUpdate(st *UpdateStmt) (int, error) {
	t, ok := e.db.Table(st.Table)
	if !ok {
		return 0, fmt.Errorf("sqlmini: unknown table %q", st.Table)
	}
	rs := tableRowset(t)
	sch := t.Schema()
	type setOp struct {
		idx  int
		expr Expr
	}
	sets := make([]setOp, 0, len(st.Sets))
	for _, s := range st.Sets {
		i, ok := sch.Index(s.Col)
		if !ok {
			return 0, fmt.Errorf("sqlmini: table %s has no column %q", st.Table, s.Col)
		}
		sets = append(sets, setOp{idx: i, expr: s.Expr})
	}
	var evalErr error
	pred := func(row relation.Row) bool {
		if st.Where == nil {
			return true
		}
		v, err := evalScalar(st.Where, row, rs)
		if err != nil {
			evalErr = err
			return false
		}
		return relation.Truthy(v)
	}
	set := func(row relation.Row) relation.Row {
		for _, s := range sets {
			v, err := evalScalar(s.expr, row, rs)
			if err != nil {
				evalErr = err
				return row
			}
			row[s.idx] = v
		}
		return row
	}
	var n int
	var err error
	if e.tx != nil {
		n, err = e.tx.UpdateWhere(t, pred, set)
	} else {
		n, err = t.UpdateWhere(pred, set)
	}
	if err != nil {
		return n, err
	}
	return n, evalErr
}

func (e *Engine) execDelete(st *DeleteStmt) (int, error) {
	t, ok := e.db.Table(st.Table)
	if !ok {
		return 0, fmt.Errorf("sqlmini: unknown table %q", st.Table)
	}
	rs := tableRowset(t)
	var evalErr error
	pred := func(row relation.Row) bool {
		if st.Where == nil {
			return true
		}
		v, err := evalScalar(st.Where, row, rs)
		if err != nil {
			evalErr = err
			return false
		}
		return relation.Truthy(v)
	}
	var n int
	var err error
	if e.tx != nil {
		n, err = e.tx.DeleteWhere(t, pred)
	} else {
		n, err = t.DeleteWhere(pred)
	}
	if err != nil {
		return n, err
	}
	return n, evalErr
}

func (e *Engine) execCreate(st *CreateStmt) error {
	if e.tx != nil {
		return fmt.Errorf("sqlmini: CREATE TABLE is not allowed inside a transaction")
	}
	opts := []relation.TableOption{}
	if len(st.PK) > 0 {
		opts = append(opts, relation.WithPrimaryKey(st.PK...))
	}
	if st.AutoInc != "" {
		opts = append(opts, relation.WithAutoIncrement(st.AutoInc))
	}
	for _, ix := range st.Indexes {
		opts = append(opts, relation.WithIndex(ix))
	}
	for _, ix := range st.Ordered {
		opts = append(opts, relation.WithOrderedIndex(ix))
	}
	schema, err := relation.NewSchema(st.Cols...)
	if err != nil {
		return err
	}
	t, err := relation.NewTable(st.Table, schema, opts...)
	if err != nil {
		return err
	}
	return e.db.Create(t)
}
