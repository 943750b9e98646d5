package relation

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the MVCC core: a per-DB commit clock, per-slot version
// metadata, snapshot visibility, and the Tx API (DB.Begin → snapshot
// reads, read-your-own-writes, first-committer-wins conflicts, commit /
// rollback).
//
// The representation keeps the existing rows/slot layout: rows[slot]
// always holds the NEWEST version of a row, and meta[slot] carries its
// begin/end commit stamps plus a chain of superseded committed versions.
// Readers that are not inside a transaction see the latest committed
// state exactly as before (the degenerate snapshot), so the hot paths
// keep their shape; transaction snapshots walk the chains. Writers never
// block readers and readers never block writers — a reader holds the
// table RLock only per batch, and visibility is decided by stamps, not
// by lock exclusion.

// ErrTxDone is returned when a finished transaction is used again.
var ErrTxDone = errors.New("relation: transaction already committed or rolled back")

// ErrTxConflict is the first-committer-wins write-write conflict: the
// transaction tried to write a row version it cannot own — either a row
// another in-flight transaction has staged a write against, or one that
// was committed after this transaction's snapshot. The transaction is
// poisoned: only Rollback (or Commit, which reports this error and
// rolls back) remains.
var ErrTxConflict = errors.New("relation: write-write conflict")

// slotMeta is the visibility metadata behind one row slot. The zero
// value (all stamps zero, no chain) means "uncommitted by an unknown
// writer" and is never observable: every code path that fills a slot
// stamps it before releasing the write lock.
type slotMeta struct {
	begin uint64      // commit seq of the creating write; 0 = creator still in flight
	end   uint64      // commit seq of the deleting write; 0 = live
	btx   uint64      // in-flight creator tx id (begin==0 while set)
	etx   uint64      // in-flight deleter tx id (end==0 while set)
	prev  *rowVersion // superseded committed versions, newest first
}

// plain reports whether the slot has no transactional residue: exactly
// one committed, live version and no chain. Index entries for a plain
// slot are exact, so lookups skip re-validation.
func (m *slotMeta) plain() bool {
	return m.btx == 0 && m.etx == 0 && m.end == 0 && m.prev == nil
}

// rowVersion is one superseded committed version of a row.
type rowVersion struct {
	row   Row
	begin uint64
	end   uint64 // 0 while the superseding head is uncommitted
	prev  *rowVersion
}

// Snap identifies what a read can see: every version committed at or
// before seq, plus the uncommitted writes of transaction tx (0 = none).
type Snap struct {
	seq uint64
	tx  uint64
}

const latestSeq = ^uint64(0)

// LatestSnap is the degenerate snapshot non-transactional reads use: it
// admits every committed version and no in-flight one — the same
// read-committed-flavored visibility the table had before MVCC.
func LatestSnap() Snap { return Snap{seq: latestSeq} }

func (sn Snap) latest() bool { return sn.seq == latestSeq && sn.tx == 0 }

// visibleLocked resolves the row version at slot that sn can see, or
// nil. Caller holds at least the table read lock.
func (t *Table) visibleLocked(slot int, sn Snap) Row {
	row := t.rows[slot]
	if row == nil {
		return nil
	}
	m := &t.meta[slot]
	if m.btx != 0 {
		// Head is an in-flight write; visible only to its own transaction
		// (unless that same transaction also staged its deletion).
		if m.btx == sn.tx {
			if m.etx == sn.tx {
				return nil
			}
			return row
		}
	} else if m.begin <= sn.seq {
		if m.etx != 0 && m.etx == sn.tx {
			return nil // we staged this row's deletion
		}
		if m.end != 0 && m.end <= sn.seq {
			return nil // deleted at or before the snapshot
		}
		return row
	}
	// Head invisible: committed past the snapshot, or another
	// transaction's in-flight write. Walk the superseded versions.
	for v := m.prev; v != nil; v = v.prev {
		if v.begin <= sn.seq && (v.end == 0 || v.end > sn.seq) {
			return v.row
		}
	}
	return nil
}

// txClock is the per-DB transaction clock: a commit-sequence allocator,
// the committed watermark (every seq at or below it is fully stamped),
// the active-snapshot registry, and the transaction counters served
// under /api/stats.
type txClock struct {
	mu        sync.Mutex
	commitSeq uint64              // last allocated commit seq
	pending   map[uint64]struct{} // allocated, not yet fully stamped
	snaps     map[uint64]uint64   // active tx id → snapshot seq
	watermark atomic.Uint64       // largest seq with no pending seq at or below it
	nextTx    atomic.Uint64

	active    atomic.Int64
	committed atomic.Uint64
	aborted   atomic.Uint64
	conflicts atomic.Uint64
}

func newTxClock() *txClock {
	c := &txClock{
		commitSeq: 1, // seq 1 is the "ancient" stamp pre-MVCC rows carry
		pending:   make(map[uint64]struct{}),
		snaps:     make(map[uint64]uint64),
	}
	c.watermark.Store(1)
	return c
}

// alloc reserves the next commit seq and reports whether superseded
// versions must be retained (true while any transaction snapshot is
// active). The seq stays pending — excluded from new snapshots — until
// complete is called; allocation and the keep-versions decision are
// atomic so a transaction beginning mid-statement can never observe a
// discarded version it was entitled to.
func (c *txClock) alloc() (seq uint64, keepOld bool) {
	if c == nil {
		return 1, false
	}
	c.mu.Lock()
	c.commitSeq++
	seq = c.commitSeq
	c.pending[seq] = struct{}{}
	keepOld = len(c.snaps) > 0
	c.mu.Unlock()
	return seq, keepOld
}

// complete marks seq fully stamped and advances the watermark over any
// contiguous run of completed seqs.
func (c *txClock) complete(seq uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	delete(c.pending, seq)
	w := c.watermark.Load()
	for w < c.commitSeq {
		if _, open := c.pending[w+1]; open {
			break
		}
		w++
	}
	c.watermark.Store(w)
	c.mu.Unlock()
}

// beginSnap registers a new transaction. It waits until no commit is
// mid-stamp so the snapshot is a clean prefix: every seq at or below it
// is fully stamped, every seq above it is invisible.
func (c *txClock) beginSnap() (id, snap uint64) {
	id = c.nextTx.Add(1)
	for {
		c.mu.Lock()
		if len(c.pending) == 0 {
			snap = c.commitSeq
			c.snaps[id] = snap
			c.mu.Unlock()
			c.active.Add(1)
			return id, snap
		}
		c.mu.Unlock()
		runtime.Gosched() // stamp loops are short; spin rather than block
	}
}

// endSnap unregisters a transaction's snapshot.
func (c *txClock) endSnap(id uint64) {
	c.mu.Lock()
	delete(c.snaps, id)
	c.mu.Unlock()
	c.active.Add(-1)
}

// minActive returns the oldest active snapshot seq, or the maximum
// uint64 when no snapshot is active — the horizon below which
// superseded versions are unreachable and may be garbage collected.
func (c *txClock) minActive() uint64 {
	if c == nil {
		return latestSeq
	}
	c.mu.Lock()
	min := uint64(latestSeq)
	for _, s := range c.snaps {
		if s < min {
			min = s
		}
	}
	c.mu.Unlock()
	return min
}

// anyActive reports whether any transaction snapshot is registered.
func (c *txClock) anyActive() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	n := len(c.snaps)
	c.mu.Unlock()
	return n > 0
}

// TxStats is the transaction section of /api/stats.
type TxStats struct {
	Active    int64  `json:"active"`
	Committed uint64 `json:"committed"`
	Aborted   uint64 `json:"aborted"`
	Conflicts uint64 `json:"conflicts"`
	Watermark uint64 `json:"watermark"`
}

// TxStats snapshots the database's transaction counters.
func (db *DB) TxStats() TxStats {
	c := db.clock
	return TxStats{
		Active:    c.active.Load(),
		Committed: c.committed.Load(),
		Aborted:   c.aborted.Load(),
		Conflicts: c.conflicts.Load(),
		Watermark: c.watermark.Load(),
	}
}

// NotifyStats always returns (0, 0). It counted row-observer
// notifications delivered before their fsync was confirmed, or dropped
// because the WAL rejected their records; the only observers were the
// write-through copies of the in-process sharding layer, which is gone,
// so there is nothing left to count. It stays because the serving
// benchmark's counter snapshot calls it.
func (db *DB) NotifyStats() (unconfirmed, dropped uint64) {
	return 0, 0
}

// Tx is a snapshot-isolation transaction over one DB. Reads see the
// database exactly as of Begin plus the transaction's own writes;
// writes stage in-flight versions invisible to everyone else until
// Commit stamps them with a single commit seq. Write-write conflicts
// (first-committer-wins) surface as ErrTxConflict on the writing
// statement and poison the transaction. A Tx is not safe for
// concurrent use by multiple goroutines.
type Tx struct {
	db    *DB
	clock *txClock
	id    uint64
	snap  uint64

	writes  []*txEffect
	bySlot  map[txSlotKey]*txEffect
	tables  map[*Table]struct{}
	gate    TxStorage // non-nil while holding the checkpoint gate
	done    bool
	poison  error
	doneSeq uint64 // commit seq once committed (0 otherwise)
}

type txSlotKey struct {
	t    *Table
	slot int
}

// txEffect is this transaction's net effect on one slot.
type txEffect struct {
	t      *Table
	kind   MutKind // MutInsert / MutUpdate / MutDelete
	slot   int
	node   *rowVersion // update: the chain node holding the superseded version
	erased bool        // insert later deleted by this same tx: commit to a dead version

	// A staged insert/rekey can displace a primary-key mapping that a
	// dead-but-retained version still holds; rollback restores it.
	pkDisplaced bool
	pkKey       string
	pkPrev      int
}

// Begin opens a snapshot-isolation transaction. On a durable DB the
// transaction holds the checkpoint gate (shared side) for its lifetime,
// so a checkpoint can never truncate WAL records of an open
// transaction; long-lived transactions therefore delay checkpoints.
func (db *DB) Begin() *Tx {
	tx := &Tx{db: db, clock: db.clock}
	db.mu.RLock()
	s := db.store
	db.mu.RUnlock()
	if ts, ok := s.(TxStorage); ok {
		ts.BeginTxGate()
		tx.gate = ts
	}
	tx.id, tx.snap = db.clock.beginSnap()
	return tx
}

// Snapshot returns the visibility snapshot of the transaction's reads.
func (tx *Tx) Snapshot() Snap { return Snap{seq: tx.snap, tx: tx.id} }

// ID returns the transaction id.
func (tx *Tx) ID() uint64 { return tx.id }

func (tx *Tx) usable() error {
	if tx.done {
		return ErrTxDone
	}
	return nil
}

// countConflict bumps the DB-wide conflict counter; the autocommit
// write paths in table.go call it when a statement loses to a row
// staged by an open transaction.
func (t *Table) countConflict() {
	if t.clock != nil {
		t.clock.conflicts.Add(1)
	}
}

func (tx *Tx) fail(err error) error {
	if errors.Is(err, ErrTxConflict) {
		tx.clock.conflicts.Add(1)
		if tx.poison == nil {
			tx.poison = err
		}
	}
	return err
}

func (tx *Tx) touch(t *Table) {
	if tx.tables == nil {
		tx.tables = make(map[*Table]struct{})
		tx.bySlot = make(map[txSlotKey]*txEffect)
	}
	tx.tables[t] = struct{}{}
}

func (tx *Tx) record(e *txEffect) {
	tx.touch(e.t)
	tx.writes = append(tx.writes, e)
	tx.bySlot[txSlotKey{e.t, e.slot}] = e
}

// canWriteLocked checks the first-committer-wins rule for slot: the
// head version must be this transaction's own staged write, or a
// committed live version inside the snapshot. Caller holds the write
// lock and has established that the slot is visible to tx.
func (tx *Tx) canWriteLocked(t *Table, slot int) error {
	m := &t.meta[slot]
	if m.btx != 0 {
		if m.btx != tx.id {
			return ErrTxConflict
		}
		return nil
	}
	if m.etx != 0 && m.etx != tx.id {
		return ErrTxConflict
	}
	if m.begin > tx.snap || m.end != 0 {
		// Committed after our snapshot began (or already deleted by a
		// later committer): first committer won.
		return ErrTxConflict
	}
	return nil
}

// logTx journals a statement's staged effects under the table lock,
// mirroring the autocommit Storage protocol but with tx-tagged records
// and no per-statement fsync: only the commit record is awaited.
func (tx *Tx) logTx(t *Table, muts []Mutation) error {
	if tx.gate == nil {
		return nil
	}
	_, err := tx.gate.LogTxMutations(tx.id, t.name, muts)
	return err
}

// Insert stages a row insert. The returned row is the stored image
// (auto-increment and coercion applied).
func (tx *Tx) Insert(t *Table, row Row) (Row, error) {
	if err := tx.usable(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r, err := t.validate(row)
	if err != nil {
		return nil, err
	}
	var key string
	displaced, prevSlot := false, 0
	if t.pkIndex != nil {
		key = t.pkKey(r)
		if slot, dup := t.pkIndex[key]; dup {
			// The mapping may be stale: the version under it may be
			// deleted (awaiting GC) or staged for deletion by this very
			// transaction. Steal it only when no live-to-us claim remains.
			if t.slotHasKeyLocked(slot, key) {
				m := &t.meta[slot]
				switch {
				case m.btx != 0 && m.btx != tx.id:
					return nil, tx.fail(fmt.Errorf("relation: table %s key %v staged by another transaction: %w", t.name, key, ErrTxConflict))
				case m.etx == tx.id:
					// We deleted this row in this transaction: the key is
					// free for us. The mapping moves to the new slot; the
					// old version stays reachable through its slot.
				case t.visibleLocked(slot, tx.Snapshot()) != nil:
					return nil, fmt.Errorf("%w: table %s key %v", ErrDuplicateKey, t.name, key)
				case m.btx == 0 && m.end == 0:
					// A live head committed after our snapshot: the first
					// committer won this key.
					return nil, tx.fail(fmt.Errorf("relation: table %s key %v committed after snapshot: %w", t.name, key, ErrTxConflict))
				}
			}
			displaced, prevSlot = true, slot
		}
	}
	slot := t.newSlotLocked(r)
	t.meta[slot] = slotMeta{btx: tx.id}
	t.vslotAdd(slot)
	if t.pkIndex != nil {
		t.pkIndex[key] = slot
	}
	t.addEntriesLocked(slot, r, nil)
	if err := tx.logTx(t, []Mutation{{Kind: MutInsert, Slot: slot, Row: r}}); err != nil {
		t.removeHeadLocked(slot)
		if displaced {
			t.pkIndex[key] = prevSlot
		}
		return nil, err
	}
	tx.record(&txEffect{t: t, kind: MutInsert, slot: slot, pkDisplaced: displaced, pkKey: key, pkPrev: prevSlot})
	return r.Clone(), nil
}

// UpdateWhere stages an update of every row (visible to tx) satisfying
// pred, reporting how many. A conflict or validation error mid-batch
// leaves the earlier staged updates in place — roll back to discard
// them.
func (tx *Tx) UpdateWhere(t *Table, pred func(Row) bool, set func(Row) Row) (int, error) {
	if err := tx.usable(); err != nil {
		return 0, err
	}
	sn := tx.Snapshot()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	var muts []Mutation
	for slot := range t.rows {
		cur := t.visibleLocked(slot, sn)
		if cur == nil || !pred(cur) {
			continue
		}
		if err := tx.canWriteLocked(t, slot); err != nil {
			return n, tx.fail(fmt.Errorf("relation: table %s slot %d: %w", t.name, slot, err))
		}
		repl, err := t.validate(set(cur.Clone()))
		if err != nil {
			return n, err
		}
		if err := tx.stageUpdateLocked(t, slot, repl); err != nil {
			return n, err
		}
		muts = append(muts, Mutation{Kind: MutUpdate, Slot: slot, Row: repl})
		n++
	}
	if len(muts) > 0 {
		if err := tx.logTx(t, muts); err != nil {
			return n, err
		}
	}
	return n, nil
}

// stageUpdateLocked replaces slot's head with repl under this
// transaction: the committed head (if any) is pushed onto the version
// chain, and index entries for repl's values are added while the old
// entries are retained for other snapshots.
func (tx *Tx) stageUpdateLocked(t *Table, slot int, repl Row) error {
	m := &t.meta[slot]
	old := t.rows[slot]
	displaced, prevSlot := false, 0
	var newKey string
	if t.pkIndex != nil {
		oldKey := t.pkKey(old)
		newKey = t.pkKey(repl)
		if newKey != oldKey {
			if s, dup := t.pkIndex[newKey]; dup && s != slot {
				if t.slotHasKeyLocked(s, newKey) {
					return fmt.Errorf("%w: table %s", ErrDuplicateKey, t.name)
				}
				displaced, prevSlot = true, s
			}
			t.pkIndex[newKey] = slot
			// The old key's mapping stays: superseded versions (and, on
			// our own rewrite, possibly chain versions) still claim it;
			// GC retires it when the last claimant goes.
		}
	}
	if m.btx == tx.id {
		// Rewriting our own staged head: swap in place, keeping the
		// entry sets consistent with the surviving versions.
		t.retireEntriesLocked(slot, old, repl)
		t.addEntriesLocked(slot, repl, nil)
		t.rows[slot] = repl
		if t.pkIndex != nil {
			// The rewritten head's key may now be unclaimed.
			if oldKey := t.pkKey(old); oldKey != newKey {
				if s, ok := t.pkIndex[oldKey]; ok && s == slot && !t.slotHasKeyLocked(slot, oldKey) {
					delete(t.pkIndex, oldKey)
				}
			}
		}
		if displaced {
			if e := tx.bySlot[txSlotKey{t, slot}]; e != nil && !e.pkDisplaced {
				e.pkDisplaced, e.pkKey, e.pkPrev = true, newKey, prevSlot
			}
		}
		return nil
	}
	node := &rowVersion{row: old, begin: m.begin, prev: m.prev}
	t.addEntriesLocked(slot, repl, nil)
	t.rows[slot] = repl
	*m = slotMeta{btx: tx.id, prev: node}
	t.vslotAdd(slot)
	tx.record(&txEffect{t: t, kind: MutUpdate, slot: slot, node: node,
		pkDisplaced: displaced, pkKey: newKey, pkPrev: prevSlot})
	return nil
}

// DeleteWhere stages deletion of every row (visible to tx) satisfying
// pred, reporting how many.
func (tx *Tx) DeleteWhere(t *Table, pred func(Row) bool) (int, error) {
	if err := tx.usable(); err != nil {
		return 0, err
	}
	sn := tx.Snapshot()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	var muts []Mutation
	for slot := range t.rows {
		cur := t.visibleLocked(slot, sn)
		if cur == nil || !pred(cur) {
			continue
		}
		if err := tx.canWriteLocked(t, slot); err != nil {
			return n, tx.fail(fmt.Errorf("relation: table %s slot %d: %w", t.name, slot, err))
		}
		m := &t.meta[slot]
		m.etx = tx.id
		t.vslotAdd(slot)
		if e := tx.bySlot[txSlotKey{t, slot}]; e != nil && m.btx == tx.id {
			// Deleting a row we inserted/updated in this transaction:
			// the staged head commits as created-and-deleted (invisible
			// to every snapshot).
			e.erased = e.kind == MutInsert
			if e.kind == MutUpdate {
				e.kind = MutDelete
			}
		} else {
			tx.record(&txEffect{t: t, kind: MutDelete, slot: slot})
		}
		muts = append(muts, Mutation{Kind: MutDelete, Slot: slot})
		n++
	}
	if len(muts) > 0 {
		if err := tx.logTx(t, muts); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Get returns a copy of the row with the given primary key as this
// transaction sees it.
func (tx *Tx) Get(t *Table, key ...Value) (Row, bool) {
	if tx.done {
		return nil, false
	}
	return t.GetSnap(tx.Snapshot(), key...)
}

// Lookup returns copies of the rows whose column equals v, as this
// transaction sees them.
func (tx *Tx) Lookup(t *Table, col string, v Value) []Row {
	if tx.done {
		return nil
	}
	return t.LookupSnap(tx.Snapshot(), col, v)
}

// Scan iterates the rows this transaction sees, in slot order.
func (tx *Tx) Scan(t *Table, fn func(row Row) bool) {
	if tx.done {
		return
	}
	t.ScanSnap(tx.Snapshot(), func(_ int, r Row) bool { return fn(r) })
}

// Commit stamps every staged write with one commit seq, making the
// whole transaction visible atomically per table (and atomically to
// every snapshot begun afterwards), journals the WAL commit record, and
// waits for it to be durable. A poisoned (conflicted) transaction
// rolls back instead and reports the conflict.
func (tx *Tx) Commit() error {
	if err := tx.usable(); err != nil {
		return err
	}
	if tx.poison != nil {
		err := tx.poison
		tx.rollback()
		return err
	}
	// The commit record is appended before stamping: if the WAL rejects
	// it the transaction can still roll back cleanly, and recovery
	// treats an uncommitted transaction as aborted either way.
	var commitLSN uint64
	if tx.gate != nil && len(tx.writes) > 0 {
		lsn, err := tx.gate.LogTxCommit(tx.id)
		if err != nil {
			tx.rollback()
			return err
		}
		commitLSN = lsn
	}
	seq, _ := tx.clock.alloc()
	for t := range tx.tables {
		t.mu.Lock()
		for _, e := range tx.writes {
			if e.t != t {
				continue
			}
			m := &t.meta[e.slot]
			switch e.kind {
			case MutInsert:
				m.begin, m.btx = seq, 0
				if e.erased || m.etx == tx.id {
					m.end, m.etx = seq, 0 // born dead: never visible
					t.version++
					continue
				}
				t.live++
				t.version++
			case MutUpdate:
				m.begin, m.btx = seq, 0
				if e.node != nil {
					e.node.end = seq
				}
				t.version++
			case MutDelete:
				if m.btx == tx.id { // delete of our own staged update
					m.begin, m.btx = seq, 0
					if e.node != nil {
						e.node.end = seq
					}
				}
				m.end, m.etx = seq, 0
				t.live--
				t.version++
			}
			t.vslotAdd(e.slot)
		}
		t.gcLocked(tx.clock.minActiveExcept(tx.id))
		t.mu.Unlock()
	}
	tx.clock.complete(seq)
	tx.finish(seq)
	tx.clock.committed.Add(1)
	var err error
	if tx.gate != nil && commitLSN != 0 {
		err = tx.gate.WaitDurable(commitLSN)
	}
	tx.releaseGate()
	return err
}

// minActiveExcept is minActive ignoring one transaction — the horizon a
// committing transaction sweeps against (its own snapshot is moot).
func (c *txClock) minActiveExcept(id uint64) uint64 {
	c.mu.Lock()
	min := uint64(latestSeq)
	for tid, s := range c.snaps {
		if tid != id && s < min {
			min = s
		}
	}
	c.mu.Unlock()
	return min
}

// Rollback discards every staged write. Nothing was ever visible to
// other snapshots, so this only unwinds the staged versions.
func (tx *Tx) Rollback() error {
	if err := tx.usable(); err != nil {
		return err
	}
	tx.rollback()
	return nil
}

func (tx *Tx) rollback() {
	for i := len(tx.writes) - 1; i >= 0; i-- {
		e := tx.writes[i]
		t := e.t
		t.mu.Lock()
		m := &t.meta[e.slot]
		switch e.kind {
		case MutInsert:
			t.removeHeadLocked(e.slot)
		case MutUpdate:
			t.popHeadLocked(e.slot, e.node)
		case MutDelete:
			if m.btx == tx.id { // delete of our own staged update
				t.popHeadLocked(e.slot, e.node)
				m = &t.meta[e.slot]
			}
			if m.etx == tx.id {
				m.etx = 0
				if m.plain() {
					delete(t.vslots, e.slot)
				}
			}
		}
		if e.pkDisplaced && t.pkIndex != nil {
			if s, ok := t.pkIndex[e.pkKey]; !ok || s == e.slot {
				t.pkIndex[e.pkKey] = e.pkPrev
			}
		}
		t.mu.Unlock()
	}
	if tx.gate != nil && len(tx.writes) > 0 {
		tx.gate.LogTxAbort(tx.id) // best effort; recovery drops uncommitted txs anyway
	}
	tx.finish(0)
	tx.clock.aborted.Add(1)
	tx.releaseGate()
}

func (tx *Tx) finish(seq uint64) {
	tx.done = true
	tx.doneSeq = seq
	tx.clock.endSnap(tx.id)
}

func (tx *Tx) releaseGate() {
	if tx.gate != nil {
		tx.gate.EndTxGate()
		tx.gate = nil
	}
}

// --- staged-version maintenance on Table --------------------------------

// newSlotLocked takes a slot from the free list or appends one, storing
// r as the head row. meta is grown in step; the caller stamps it.
func (t *Table) newSlotLocked(r Row) int {
	var slot int
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
		t.rows[slot] = r
		t.meta[slot] = slotMeta{}
	} else {
		slot = len(t.rows)
		t.rows = append(t.rows, r)
		t.meta = append(t.meta, slotMeta{})
	}
	return slot
}

// vslotAdd marks a slot as carrying transactional residue (staged
// writes, version chains, or a committed-dead head awaiting GC).
func (t *Table) vslotAdd(slot int) {
	if t.vslots == nil {
		t.vslots = make(map[int]struct{})
	}
	t.vslots[slot] = struct{}{}
}

// addEntriesLocked adds index and ordered-index entries for row's
// values at slot, skipping values some other surviving version of the
// slot already carries (entry sets stay duplicate-free so removal by
// value stays exact). excl is a version to ignore (being removed).
func (t *Table) addEntriesLocked(slot int, row Row, excl *rowVersion) {
	for _, ix := range t.indexes {
		if !t.slotHasIxValueLocked(slot, ix.col, row[ix.col], row, excl) {
			ix.add(slot, row)
		}
	}
	for _, ix := range t.ordered {
		if row[ix.col] == nil {
			continue
		}
		if !t.slotHasIxValueLocked(slot, ix.col, row[ix.col], row, excl) {
			ix.add(slot, row)
		}
	}
}

// retireEntriesLocked removes index entries for gone's values at slot,
// unless another surviving version (head keep, or chain) still carries
// the value.
func (t *Table) retireEntriesLocked(slot int, gone Row, keep Row) {
	for _, ix := range t.indexes {
		if !t.ixValueSurvivesLocked(slot, ix.col, gone[ix.col], gone, keep) {
			ix.remove(slot, gone)
		}
	}
	for _, ix := range t.ordered {
		if gone[ix.col] == nil {
			continue
		}
		if !t.ixValueSurvivesLocked(slot, ix.col, gone[ix.col], gone, keep) {
			ix.remove(slot, gone)
		}
	}
}

// slotHasIxValueLocked reports whether any version of slot other than
// probe (and excl) carries an Equal value in column col.
func (t *Table) slotHasIxValueLocked(slot, col int, v Value, probe Row, excl *rowVersion) bool {
	if head := t.rows[slot]; head != nil && !sameRow(head, probe) && Equal(head[col], v) {
		return true
	}
	for n := t.meta[slot].prev; n != nil; n = n.prev {
		if n == excl || sameRow(n.row, probe) {
			continue
		}
		if Equal(n.row[col], v) {
			return true
		}
	}
	return false
}

// ixValueSurvivesLocked reports whether a version other than gone still
// carries v: the head replacement keep (if non-nil) or any chain node.
func (t *Table) ixValueSurvivesLocked(slot, col int, v Value, gone, keep Row) bool {
	if keep != nil && Equal(keep[col], v) {
		return true
	}
	if head := t.rows[slot]; head != nil && !sameRow(head, gone) && Equal(head[col], v) {
		return true
	}
	for n := t.meta[slot].prev; n != nil; n = n.prev {
		if sameRow(n.row, gone) {
			continue
		}
		if Equal(n.row[col], v) {
			return true
		}
	}
	return false
}

func sameRow(a, b Row) bool {
	return len(a) > 0 && len(b) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// slotHasKeyLocked reports whether any version of slot (head or chain)
// has the encoded primary key.
func (t *Table) slotHasKeyLocked(slot int, key string) bool {
	if head := t.rows[slot]; head != nil && t.pkKey(head) == key {
		return true
	}
	for n := t.meta[slot].prev; n != nil; n = n.prev {
		if t.pkKey(n.row) == key {
			return true
		}
	}
	return false
}

// removeHeadLocked physically removes a staged insert's head: its index
// entries, its pk mapping (if it points here and no surviving version
// claims the key), the row, and the slot back to the free list.
func (t *Table) removeHeadLocked(slot int) {
	r := t.rows[slot]
	m := &t.meta[slot]
	t.retireEntriesLocked(slot, r, nil)
	if t.pkIndex != nil {
		key := t.pkKey(r)
		if s, ok := t.pkIndex[key]; ok && s == slot {
			delete(t.pkIndex, key)
			// A chain version (from an aborted update chain — cannot
			// happen for inserts, but keep the invariant) may still
			// claim the key.
			for n := m.prev; n != nil; n = n.prev {
				if t.pkKey(n.row) == key {
					t.pkIndex[key] = slot
					break
				}
			}
		}
	}
	if m.prev == nil {
		t.rows[slot] = nil
		*m = slotMeta{}
		t.free = append(t.free, slot)
		delete(t.vslots, slot)
	} else {
		// Should not happen for a staged insert; keep the chain intact.
		t.rows[slot] = nil
	}
}

// popHeadLocked unwinds a staged update: the superseded version in node
// becomes the head again and the staged head's entries retire.
func (t *Table) popHeadLocked(slot int, node *rowVersion) {
	if node == nil {
		return
	}
	staged := t.rows[slot]
	m := &t.meta[slot]
	t.retireEntriesLocked(slot, staged, node.row)
	if t.pkIndex != nil {
		key := t.pkKey(staged)
		if key != t.pkKey(node.row) {
			if s, ok := t.pkIndex[key]; ok && s == slot && !t.hasChainKeyLocked(node, key) {
				delete(t.pkIndex, key)
			}
			t.pkIndex[t.pkKey(node.row)] = slot
		}
	}
	t.rows[slot] = node.row
	*m = slotMeta{begin: node.begin, end: node.end, etx: m.etx, prev: node.prev}
	if m.etx != 0 || m.end != 0 || m.prev != nil {
		t.vslotAdd(slot)
	} else {
		delete(t.vslots, slot)
	}
}

func (t *Table) hasChainKeyLocked(from *rowVersion, key string) bool {
	for n := from; n != nil; n = n.prev {
		if t.pkKey(n.row) == key {
			return true
		}
	}
	return false
}

// --- garbage collection -------------------------------------------------

// gcLocked prunes transactional residue no snapshot at or after horizon
// can reach: chain versions whose end is at or below the horizon, and
// committed-dead heads. Index entries whose value survives in no
// remaining version retire with them. Caller holds the write lock.
func (t *Table) gcLocked(horizon uint64) {
	if len(t.vslots) == 0 {
		return
	}
	for slot := range t.vslots {
		m := &t.meta[slot]
		// Prune the chain from the oldest end: nodes whose end is at or
		// below the horizon are unreachable (every snapshot at or after
		// it sees a newer version). Nodes with end 0 — superseded by an
		// in-flight head — always stay.
		m.prev = t.pruneChainLocked(slot, m.prev, horizon)
		if m.btx == 0 && m.etx == 0 && m.end != 0 && m.end <= horizon {
			// Committed-dead head nobody can see: physically delete.
			r := t.rows[slot]
			t.retireEntriesLocked(slot, r, nil)
			if t.pkIndex != nil {
				key := t.pkKey(r)
				if s, ok := t.pkIndex[key]; ok && s == slot {
					delete(t.pkIndex, key)
				}
			}
			t.rows[slot] = nil
			*m = slotMeta{}
			t.free = append(t.free, slot)
		}
		if t.rows[slot] == nil || m.plain() {
			delete(t.vslots, slot)
		}
	}
}

// pruneChainLocked drops chain nodes whose end is at or below horizon,
// retiring their index entries, and returns the surviving chain.
func (t *Table) pruneChainLocked(slot int, n *rowVersion, horizon uint64) *rowVersion {
	if n == nil {
		return nil
	}
	n.prev = t.pruneChainLocked(slot, n.prev, horizon)
	if n.end != 0 && n.end <= horizon {
		// Detach before retiring so the survival checks don't see the
		// node itself.
		dropped := n.row
		surv := n.prev
		t.retireChainNodeLocked(slot, dropped, surv)
		return surv
	}
	return n
}

// retireChainNodeLocked retires entries and the pk mapping of a dropped
// chain version whose row was dropped; surv is the rest of its chain.
func (t *Table) retireChainNodeLocked(slot int, dropped Row, surv *rowVersion) {
	t.retireEntriesLocked(slot, dropped, nil)
	if t.pkIndex != nil {
		key := t.pkKey(dropped)
		if s, ok := t.pkIndex[key]; ok && s == slot && !t.slotHasKeyLocked(slot, key) {
			delete(t.pkIndex, key)
		}
	}
}

// MaybeGC opportunistically sweeps transactional residue; tests and
// idle-time callers use it, and every autocommit write path sweeps the
// same way before applying.
func (t *Table) MaybeGC() {
	t.mu.Lock()
	t.gcLocked(t.clock.minActive())
	t.mu.Unlock()
}
