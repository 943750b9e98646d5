// Package sqlmini is a small SQL engine over the relation store. It
// supports the subset of SQL that CourseRank's FlexRecs compiler emits:
// SELECT with joins, WHERE, GROUP BY/HAVING, ORDER BY, LIMIT/OFFSET,
// DISTINCT, scalar and aggregate functions, plus INSERT, UPDATE, DELETE
// and CREATE TABLE for loading. It plays the role of the "conventional
// DBMS" in the paper's FlexRecs architecture (§3.2).
//
// # Lifecycle: prepare → plan cache → bind → execute
//
// The public API is database/sql-shaped, built so that serving the same
// parameterized query per user request costs one plan, ever:
//
//	stmt, _ := engine.Prepare(`SELECT Title FROM Courses WHERE CourseID = ?`)
//	res, _  := stmt.Query(courseID)        // materialized *Result
//	rows, _ := stmt.QueryRows(courseID)    // streaming Next/Scan cursor
//
// Prepare runs the per-statement stages exactly once:
//
//	lex+parse (parser.go) — SQL text to AST; '?' stays a late-bound Param
//	plan      (planner.go) — cost-aware physical planning
//	prepare   (stmt.go)    — star expansion, output naming, name binding
//
// Param expressions survive parsing and planning unresolved: the
// planner costs them as unknown equality constants, so an index probe
// or primary-key lookup is chosen while the key's value is still
// unknown (Stmt.Explain renders such keys as '?'). Execution then only
// binds — arguments substitute into copy-on-write shadows of the shared
// plan (bind.go) — and runs (exec.go). The legacy one-shot
// Query/Exec(sql, args...) remain as thin wrappers over the same path.
//
// Durability is transparent to this whole lifecycle: when the relation
// store was opened durable (relation.OpenDurable), every INSERT,
// UPDATE, DELETE and CREATE TABLE this engine executes routes through
// the relation.Table/relation.DB mutation paths, which journal the
// applied row effects through the write-ahead log before the statement
// returns (see the package relation docs). Plans, the plan cache and
// SELECT execution are unaffected — reads never touch the log, and no
// statement changes shape between a memory-backed and a durable store.
//
// Every prepared statement lands in the engine's PlanCache, keyed on
// the statement text and fingerprinted by the identity, SCHEMA EPOCH
// (relation.Table.SchemaEpoch) and planned row count of each table the
// plan touches. Row DML never invalidates: plans bake in access-path
// choices, not data, so a cached plan keeps serving across arbitrary
// insert/update/delete churn. A plan replans only when its fingerprint
// genuinely staled — the table was dropped and recreated, an index was
// added in place (the epoch moved), or the live-row count drifted past
// double or below half of what the planner costed with. Held *Stmt
// handles revalidate the same way before every execution, so statements
// survive DDL. The Site facade shares one engine (hence one cache)
// across the SQL facade, FlexRecs and the baseline recommenders, and
// exposes the hit/miss/invalidation counters (CacheStats) at
// /api/stats.
//
// # Planning
//
// The planner splits the WHERE/ON trees into conjuncts and decides, per
// base table, how to read it:
//
//   - pk lookup: equality constants (literals or params) cover the
//     primary key → O(1) Get
//   - index probe: equality or IN over an indexed column →
//     Lookup/LookupMany against the secondary hash index; when several
//     indexed equalities compete, table statistics (relation.TableStats)
//     pick the most selective
//   - range scan: <, <=, >, >= or BETWEEN over a column with an ordered
//     index (relation.WithOrderedIndex / ORDERED INDEX in CREATE TABLE)
//     → an index walk between the bounds, yielding rows in key order;
//     literal bounds are costed by counting index entries, late-bound
//     params by a fixed fraction. The walk runs in either direction:
//     descending (keys desc, slots asc within a key — the stable sort's
//     tie order) when ORDER BY key DESC can be elided, and unbounded
//     ("ordered scan" in Explain) when a full scan is traded purely for
//     its key order (merge joins, sort elision over a NOT NULL column)
//   - scan: everything else, with the table's pushed-down predicates
//     evaluated inline during the scan
//
// Single-table predicates push below joins wherever SQL semantics allow
// (never past the null-producing side of a LEFT join). Joins pick their
// algorithm from the estimates and the available orderings:
//
//   - index nested loop: the probe input is far smaller than an indexed
//     right scan → left rows arrive in batches whose keys drive
//     LookupMany (or GetMany through a single-column primary key), so
//     only right rows that can match are ever fetched
//   - merge join: the chain's first INNER equi join when BOTH sides can
//     stream in join-key order for free (each side either already
//     range-scans the key's ordered index or trades its full scan for
//     an ordered walk) → no hash build, no materialization, and the
//     driver's key order survives the join, so ORDER BY elision on the
//     merge key still applies downstream
//   - hash join: remaining equi joins, with the smaller side as build
//     (INNER only)
//   - band join: a join without equi keys whose ON clause holds
//     "right.col BETWEEN lo AND hi" with the column ordered-indexed and
//     both bounds computable from the left row → per-left-row range
//     probes of the ordered index (Explain: probe=range(col)) instead
//     of a full nested-loop pass
//   - nested loop: everything else
//
// Chains of two or more INNER joins additionally reorder by estimated
// cost (greedy smallest-first over the connected tables), with output
// columns permuted back to written order so projection and callers are
// oblivious. Column references are resolved to positions once at
// prepare time (boundRef), so per-row evaluation skips name resolution
// entirely.
//
// # Execution: the vectorized batch pipeline
//
// Execution is batch-at-a-time (cursor.go): every plan node opens as a
// cursor whose native protocol is NextBatch, moving rows through the
// pipeline in slabs of Engine.batch() rows (256 by default; Explain
// prints the plan's size as "vectorized batch=N"). Per-row dynamic
// dispatch is paid once per slab rather than once per row: each
// cursor's one-row Next is a thin adapter kept for interoperability,
// and Rows.Next serves from the current slab with a slice index.
//
// The batch contract: the slice NextBatch returns — and, for transient
// cursors, the rows it holds — is owned by the cursor and valid only
// until the next NextBatch/Close call; an empty batch means end of
// stream. Combined (join) and projected rows carve out of per-cursor
// arenas — one slab allocation per couple thousand rows instead of one
// per row — which run in carve-only retained mode when the consumer
// materializes, and recycle their slabs (zero steady-state allocation)
// when the consumer is the streaming Rows path, which never retains
// rows past the current batch. Join cursors additionally ramp their
// output batches up from a small first slab, so a consumer that stops
// after a handful of rows never pays for a full slab of joined rows it
// will not read.
//
// Nothing below a hash-join build side materializes, so a wide join
// consumed through Rows — or cut short by a streaming LIMIT or an
// early Close — never pays for rows nobody reads. Aggregation,
// DISTINCT and un-elided ORDER BY drain the pipeline first, since they
// need the full result anyway. WithBatchSize returns a handle whose
// pipelines use a different slab size — primarily a testing knob: the
// differential fuzz harness replays its corpus at batch sizes 1, 7 and
// 256 to prove slab boundaries never change results.
//
// Every join cursor emits left-major row order — identical to the
// materialized executor it replaced — which makes two things true: the
// planning engine returns byte-identical results to ForceScan (parity
// tests, plus the differential query-fuzz harness in fuzz_test.go,
// which generates hundreds of random SELECTs per test run and asserts
// planner ≡ ForceScan for every plan shape the planner picks), and a
// driver index walk's key order survives to the output. The planner
// exploits the latter to ELIDE an ORDER BY whose single key — ascending
// OR descending — is the driver's ordered column (Explain shows "order
// by … elided"); elided-order queries stream through Rows like
// unordered ones.
//
// Explain returns the chosen plan as text without executing; the
// FlexRecs engine surfaces it beneath each compiled statement, and the
// HTTP layer exposes it at /api/explain/{strategy}. ForceScan returns a
// derived engine handle using the naive strategy — full scans, nested
// loops, no pushdown, no caching — which parity tests run beside the
// planning engine; handles are immutable, so the two never race.
//
// # Reading an EXPLAIN ANALYZE tree
//
// Stmt.ExplainAnalyze (and QueryAnalyze, which also returns the
// result) executes the statement with per-cursor instrumentation and
// renders the same tree Explain prints, each operator line annotated
// with what actually happened:
//
//	(actual rows=N batches=B time=D)
//
// rows is how many rows the operator EMITTED (not how many it read —
// compare against the planner's "~est of total rows" estimate on the
// same line to spot misestimates), batches is how many slabs those
// rows left in, and time is INCLUSIVE wall time: the operator plus
// everything below it, so a parent is never faster than its children
// and the root's time is the statement's execution time. An operator
// the execution never opened — the build side of a join whose driver
// was empty, a branch cut off by LIMIT — reads "(actual: never
// executed)". A trailing footer sums the statement up:
//
//	analyzed: N rows out, total D
//
// Two annotations depart from the one-line-one-cursor rule. Index
// nested loop and band joins probe their right side per driver batch
// rather than opening it as a cursor, so the RIGHT line's rows count
// STORAGE PROBES RETURNED (rows fetched from the index, before the ON
// residual), and the join line itself carries "loops=N" — the number
// of driver batches that triggered a probe round. A filter line's
// rows are post-predicate, so driver-line rows minus filter-line rows
// is the filter's kill count.
//
// The FlexRecs engine's RunAnalyze decorates the same trees rather
// than reinventing them: it nests each compiled statement's annotated
// tree under its workflow step, tagging materialize steps with
// hit/stale/miss and the served view's age. Caveat: times are wall
// clock on whatever the scheduler gave the query, and a loaded box
// inflates everything. Compare rows across runs, times only within
// one.
//
// # View fingerprints vs plan-cache fingerprints
//
// Two caches above the storage layer key on the same per-table
// machinery — relation.Table's pointer identity, SchemaEpoch and
// mutation Version — but at different strictness, because they bake in
// different things:
//
//   - the PLAN cache here fingerprints (identity, SchemaEpoch, costed
//     row count). Plans bake in ACCESS PATHS, never data, so row DML
//     leaves them correct: a cached plan survives arbitrary
//     insert/update/delete churn and replans only on DDL (the epoch
//     moved, or the table was replaced) or when live-row statistics
//     drift past the replan threshold (Table.PlanFingerprint).
//   - internal/matview's view registry fingerprints (identity,
//     SchemaEpoch, Version) — the FULL mutation counter
//     (Table.ViewFingerprint). Materialized views bake in DATA, so any
//     row DML stales them; epoch moves invalidate outright (a view
//     must never serve stale-SCHEMA rows, even inside an async view's
//     staleness bound), while version moves merely stale the data,
//     which async views may keep serving inside their bound.
//
// The split keeps the hot path honest: one UPDATE leaves every cached
// plan untouched but marks the rating views stale; one AddOrderedIndex
// replans affected statements AND hard-invalidates dependent views.
//
// # Transactions and visibility
//
// The engine executes under snapshot isolation (internal/relation's
// MVCC). Every statement binds a visibility snapshot when its cursors
// open: autocommit statements read the latest committed state, while
// statements inside a transaction read the database exactly as of
// BEGIN plus the transaction's own staged writes. Two surfaces open
// transactions:
//
//   - Engine.BeginTx returns a Tx — a transaction-bound engine handle.
//     Tx.Query/Exec/QueryRows, and prepared-statement execution via
//     Stmt.QueryTx/ExecTx/QueryRowsTx, all run under the transaction's
//     snapshot. The handle shares the parent engine's plan cache.
//   - Session interprets BEGIN / COMMIT / ROLLBACK (and START
//     TRANSACTION) statefully, routing the statements in between
//     through the open transaction. Stateless Engine.Exec rejects
//     transaction control outright — an engine is shared and has no
//     "current transaction".
//
// Conflict semantics are first-committer-wins: a transactional write
// to a row that another open transaction has staged, or that committed
// after this transaction's snapshot, fails with relation.ErrTxConflict
// and poisons the transaction (only ROLLBACK remains; COMMIT reports
// the conflict and rolls back). Writers never wait for each other and
// readers never block writers — a conflicted statement loses
// immediately rather than queueing. DDL (CREATE TABLE) is rejected
// inside transactions.
//
// The plan cache needs no transaction awareness: plans bake in access
// paths, never data, and snapshots bind at cursor-open time — so a
// plan cached by an autocommit statement is reused verbatim inside a
// transaction and vice versa. Plan fingerprints (SchemaEpoch +
// row-count drift) read the table's LATEST state even mid-transaction;
// that is deliberate, since replanning on committed growth is valid
// for any snapshot. Materialized views sit on the other side of the
// fence: ViewFingerprint tracks the full mutation version, which moves
// only at COMMIT — staged writes are invisible to matviews exactly as
// they are to other readers, so a transaction that wants its own
// writes reflected must query tables, not views.
//
// Streaming Rows opened inside a transaction must be drained or closed
// before COMMIT/ROLLBACK: ending the transaction releases its
// snapshot, after which version garbage collection may reclaim the row
// versions the cursor was positioned over.
//
// # Order contract
//
// A statement with ORDER BY yields rows in exactly that key order,
// whether it sorted them or elided the sort into an ordered index
// walk. Rows with equal keys come out in slot-ascending order on both
// paths, which is what lets the planner ≡ ForceScan parity tests
// compare ordered results bitwise. Slots are reused after deletes, so
// a caller that needs a tie order stable across writes ends the ORDER
// BY in a key unique per row. LIMIT and OFFSET apply after the order;
// over a pipeline whose order is already final the limit streams and
// stops the work below it once the window is full.
package sqlmini
