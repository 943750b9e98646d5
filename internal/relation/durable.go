package relation

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"courserank/internal/pager"
	"courserank/internal/wal"
)

// DurableStore is the disk-backed Storage implementation: every
// mutation is journaled through an append-only WAL before the mutator
// returns, and checkpoints stream a slot-preserving snapshot of the
// whole database through the pager, after which the WAL is truncated.
// OpenDurable recovers by loading the checkpoint snapshot and replaying
// WAL records past the checkpoint LSN slot-for-slot.
//
// Layout under the store directory:
//
//	pages.db — page file; header meta holds the active snapshot extent
//	           {lsn, start page, page count, byte length}
//	wal.log  — redo log of records since (at most) the checkpoint LSN
//
// Checkpoints ping-pong between two page regions so a crash mid-write
// never corrupts the active snapshot: the new region is written and
// synced first, then the header meta swaps to it in a single small
// header write.
type DurableStore struct {
	dir string
	db  *DB
	log *wal.Log
	pg  *pager.Pager

	// gate is the checkpoint gate: mutators hold the shared side across
	// apply+journal (Storage.BeginMutate/EndMutate); Checkpoint holds it
	// exclusively, freezing the database on a record boundary.
	gate sync.RWMutex
	ckMu sync.Mutex // serializes whole checkpoint runs

	ckEvery       int64
	sinceCk       atomic.Int64
	ckLSN         atomic.Uint64
	checkpointing atomic.Bool
	checkpoints   atomic.Uint64
	recovered     int
	closed        atomic.Bool
}

// DefaultCheckpointEvery is the auto-checkpoint threshold (WAL records
// appended since the last checkpoint) when DurableOptions.CheckpointEvery
// is zero.
const DefaultCheckpointEvery = 4096

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Sync selects the commit policy: SyncAlways fsyncs before a
	// mutator returns (group commit lets concurrent committers share
	// one fsync); SyncNone returns immediately and a background flusher
	// bounds the staleness window.
	Sync wal.SyncPolicy
	// FlushEvery is the background flush cadence under SyncNone
	// (default 100ms).
	FlushEvery time.Duration
	// CheckpointEvery is the number of WAL records between automatic
	// checkpoints; 0 means DefaultCheckpointEvery, negative disables
	// auto-checkpointing (explicit Checkpoint calls only).
	CheckpointEvery int
	// PageSize and PoolPages pass through to the pager.
	PageSize  int
	PoolPages int
}

// WAL record types.
const (
	recDML      byte = 1
	recCreate   byte = 2
	recDrop     byte = 3
	recAlter    byte = 4
	recTxDML    byte = 5 // transaction statement effects; redo only if committed
	recTxCommit byte = 6 // transaction commit marker
	recTxAbort  byte = 7 // transaction abort marker (advisory)
)

// walMut is one row effect inside a DML record.
type walMut struct {
	Op   string          `json:"op"` // "i", "u", "d"
	Slot int             `json:"s"`
	Row  json.RawMessage `json:"r,omitempty"` // JSON array of cells
}

type walDML struct {
	Table string   `json:"t"`
	Muts  []walMut `json:"m"`
}

// walTxDML is one transaction statement's row effects. Unlike walDML it
// is a no-op at replay unless the transaction's commit record is also
// in the log: recovery redoes transactions as a unit or not at all.
type walTxDML struct {
	Tx    uint64   `json:"x"`
	Table string   `json:"t"`
	Muts  []walMut `json:"m"`
}

// walTx is a commit or abort marker.
type walTx struct {
	Tx uint64 `json:"x"`
}

type walDrop struct {
	Table string `json:"t"`
}

type walAlter struct {
	Table string `json:"t"`
	Col   string `json:"c"`
}

// pagerMeta is the checkpoint descriptor stored in the pager header.
type pagerMeta struct {
	LSN   uint64 `json:"lsn"`   // WAL records at or below this are in the snapshot
	Start int    `json:"start"` // first page of the active snapshot region
	Pages int    `json:"pages"` // pages in the region
	Len   int64  `json:"len"`   // snapshot byte length
}

// durableHeader heads one table in the checkpoint snapshot. Unlike the
// portable Save format it preserves slot layout: Slots is the length of
// the row slice including tombstones, and each row line carries its
// slot, so post-checkpoint WAL records keep addressing the right rows.
type durableHeader struct {
	snapshotHeader
	Slots    int   `json:"slots"`
	NextAuto int64 `json:"nextAuto"`
}

// OpenDurable opens (or creates) a durable database in dir: it loads
// the checkpoint snapshot through the pager, replays committed WAL
// records past the checkpoint LSN, and attaches the store so every
// subsequent mutation is journaled. The returned DB is ready to serve.
func OpenDurable(dir string, opts DurableOptions) (*DB, *DurableStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("relation: durable open: %w", err)
	}
	pg, err := pager.Open(filepath.Join(dir, "pages.db"), pager.Options{PageSize: opts.PageSize, PoolPages: opts.PoolPages})
	if err != nil {
		return nil, nil, fmt.Errorf("relation: durable open: %w", err)
	}
	db := NewDB()
	meta, err := loadCheckpoint(pg, db)
	if err != nil {
		pg.Close()
		return nil, nil, err
	}
	log, recs, err := wal.Open(filepath.Join(dir, "wal.log"), wal.Options{Sync: opts.Sync, FlushEvery: opts.FlushEvery})
	if err != nil {
		pg.Close()
		return nil, nil, fmt.Errorf("relation: durable open: %w", err)
	}
	s := &DurableStore{dir: dir, db: db, log: log, pg: pg, ckEvery: int64(opts.CheckpointEvery)}
	if opts.CheckpointEvery == 0 {
		s.ckEvery = DefaultCheckpointEvery
	}
	s.ckLSN.Store(meta.LSN)
	if err := s.replay(recs, meta.LSN); err != nil {
		log.Close()
		pg.Close()
		return nil, nil, err
	}
	// Snapshot load and replay both poke slots directly; settle the
	// free lists before the first live insert.
	for _, name := range db.Names() {
		t := db.MustTable(name)
		t.mu.Lock()
		t.rebuildFreeLocked()
		t.mu.Unlock()
	}
	s.sinceCk.Store(int64(s.recovered))
	db.attachStorage(s)
	return db, s, nil
}

// loadCheckpoint reads the active snapshot region into db. A fresh or
// empty page file yields an empty database and a zero meta.
func loadCheckpoint(pg *pager.Pager, db *DB) (pagerMeta, error) {
	var meta pagerMeta
	raw := pg.Meta()
	if len(raw) == 0 {
		return meta, nil
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		return meta, fmt.Errorf("relation: corrupt checkpoint meta: %w", err)
	}
	if meta.Len == 0 {
		return meta, nil
	}
	data := make([]byte, 0, meta.Len)
	for i := 0; i < meta.Pages; i++ {
		p, err := pg.Acquire(meta.Start + i)
		if err != nil {
			return meta, fmt.Errorf("relation: checkpoint page %d: %w", meta.Start+i, err)
		}
		data = append(data, p.Data()...)
		p.Release()
	}
	if int64(len(data)) < meta.Len {
		return meta, fmt.Errorf("relation: checkpoint region holds %d bytes, meta says %d", len(data), meta.Len)
	}
	if err := loadDurableSnapshot(db, data[:meta.Len]); err != nil {
		return meta, err
	}
	return meta, nil
}

// loadDurableSnapshot decodes a slot-preserving snapshot into db.
func loadDurableSnapshot(db *DB, data []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		buf := sc.Bytes()
		if len(bytes.TrimSpace(buf)) == 0 {
			continue
		}
		var head durableHeader
		if err := json.Unmarshal(buf, &head); err != nil {
			return fmt.Errorf("relation: checkpoint header: %w", err)
		}
		t, err := tableFromHeader(head.snapshotHeader)
		if err != nil {
			return fmt.Errorf("relation: checkpoint: %w", err)
		}
		if err := db.Create(t); err != nil {
			return fmt.Errorf("relation: checkpoint: %w", err)
		}
		cols := t.Schema().Columns()
		for i := 0; i < head.Rows; i++ {
			if !sc.Scan() {
				return fmt.Errorf("relation: checkpoint table %s: truncated at row %d of %d", head.Table, i, head.Rows)
			}
			var line []json.RawMessage
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return fmt.Errorf("relation: checkpoint table %s row %d: %w", head.Table, i, err)
			}
			if len(line) != len(cols)+1 {
				return fmt.Errorf("relation: checkpoint table %s row %d: %d fields, want slot+%d cells", head.Table, i, len(line), len(cols))
			}
			var slot int
			if err := json.Unmarshal(line[0], &slot); err != nil {
				return fmt.Errorf("relation: checkpoint table %s row %d slot: %w", head.Table, i, err)
			}
			row := make(Row, len(cols))
			for j, cell := range line[1:] {
				v, err := decodeCell(cell, cols[j].Type)
				if err != nil {
					return fmt.Errorf("relation: checkpoint table %s row %d col %s: %w", head.Table, i, cols[j].Name, err)
				}
				row[j] = v
			}
			if err := t.applyInsertSlot(slot, row); err != nil {
				return err
			}
		}
		// Tombstone tail: grow the slice to the recorded slot count so
		// replayed records addressing trailing tombstones stay in range.
		// Version stamps grow in lockstep (len(meta) == len(rows)).
		t.mu.Lock()
		for len(t.rows) < head.Slots {
			t.rows = append(t.rows, nil)
			t.meta = append(t.meta, slotMeta{})
		}
		if head.NextAuto > t.nextAut {
			t.nextAut = head.NextAuto
		}
		t.mu.Unlock()
	}
	return sc.Err()
}

// replay applies committed WAL records past the checkpoint LSN. Records
// at or below ckLSN are already inside the snapshot — they survive in
// the log only when a crash landed between the checkpoint's meta swap
// and its WAL truncation. Replay is two-pass: the first pass collects
// the IDs of transactions whose commit record made it to the log, the
// second applies records in LSN order, skipping transaction effects
// whose commit never landed — a crash mid-transaction loses the whole
// transaction, never a prefix.
func (s *DurableStore) replay(recs []wal.Record, ckLSN uint64) error {
	var committed map[uint64]bool
	for _, rec := range recs {
		if rec.LSN <= ckLSN || rec.Type != recTxCommit {
			continue
		}
		var op walTx
		if err := json.Unmarshal(rec.Data, &op); err != nil {
			return fmt.Errorf("relation: recovery lsn %d: %w", rec.LSN, err)
		}
		if committed == nil {
			committed = make(map[uint64]bool)
		}
		committed[op.Tx] = true
	}
	for _, rec := range recs {
		if rec.LSN <= ckLSN {
			continue
		}
		if err := s.applyRecord(rec, committed); err != nil {
			return fmt.Errorf("relation: recovery lsn %d: %w", rec.LSN, err)
		}
		s.recovered++
	}
	return nil
}

// applyDML redoes one statement's row effects slot-for-slot.
func (s *DurableStore) applyDML(table string, muts []walMut) error {
	t, ok := s.db.Table(table)
	if !ok {
		return fmt.Errorf("DML against unknown table %q", table)
	}
	cols := t.Schema().Columns()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range muts {
		switch m.Op {
		case "d":
			if err := t.applyDeleteSlot(m.Slot); err != nil {
				return err
			}
		case "i", "u":
			row, err := decodeWALRow(m.Row, cols)
			if err != nil {
				return err
			}
			if m.Op == "i" {
				err = t.applyInsertSlot(m.Slot, row)
			} else {
				err = t.applyUpdateSlot(m.Slot, row)
			}
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown mutation op %q", m.Op)
		}
	}
	return nil
}

func (s *DurableStore) applyRecord(rec wal.Record, committed map[uint64]bool) error {
	switch rec.Type {
	case recDML:
		var op walDML
		if err := json.Unmarshal(rec.Data, &op); err != nil {
			return err
		}
		return s.applyDML(op.Table, op.Muts)
	case recTxDML:
		var op walTxDML
		if err := json.Unmarshal(rec.Data, &op); err != nil {
			return err
		}
		if !committed[op.Tx] {
			return nil // transaction never committed; drop its effects
		}
		return s.applyDML(op.Table, op.Muts)
	case recTxCommit, recTxAbort:
		return nil // markers; consumed by the first pass
	case recCreate:
		var head snapshotHeader
		if err := json.Unmarshal(rec.Data, &head); err != nil {
			return err
		}
		t, err := tableFromHeader(head)
		if err != nil {
			return err
		}
		return s.db.Create(t)
	case recDrop:
		var op walDrop
		if err := json.Unmarshal(rec.Data, &op); err != nil {
			return err
		}
		s.db.Drop(op.Table)
		return nil
	case recAlter:
		var op walAlter
		if err := json.Unmarshal(rec.Data, &op); err != nil {
			return err
		}
		t, ok := s.db.Table(op.Table)
		if !ok {
			return fmt.Errorf("ALTER against unknown table %q", op.Table)
		}
		return t.addOrderedIndexLocked(op.Col)
	default:
		return fmt.Errorf("unknown record type %d", rec.Type)
	}
}

func decodeWALRow(raw json.RawMessage, cols []Column) (Row, error) {
	var cells []json.RawMessage
	if err := json.Unmarshal(raw, &cells); err != nil {
		return nil, err
	}
	if len(cells) != len(cols) {
		return nil, fmt.Errorf("row has %d cells, schema wants %d", len(cells), len(cols))
	}
	row := make(Row, len(cols))
	for j, cell := range cells {
		v, err := decodeCell(cell, cols[j].Type)
		if err != nil {
			return nil, err
		}
		row[j] = v
	}
	return row, nil
}

// --- Storage interface --------------------------------------------------

// BeginMutate enters the checkpoint gate (shared side).
func (s *DurableStore) BeginMutate() { s.gate.RLock() }

// EndMutate leaves the checkpoint gate.
func (s *DurableStore) EndMutate() { s.gate.RUnlock() }

// LogMutations appends one redo record for a statement's row effects.
func (s *DurableStore) LogMutations(table string, muts []Mutation) (uint64, error) {
	wm, err := encodeWalMuts(muts)
	if err != nil {
		return 0, err
	}
	return s.append(recDML, walDML{Table: table, Muts: wm})
}

func encodeWalMuts(muts []Mutation) ([]walMut, error) {
	wm := make([]walMut, len(muts))
	for i, m := range muts {
		var raw json.RawMessage
		if m.Row != nil {
			b, err := json.Marshal([]Value(m.Row))
			if err != nil {
				return nil, fmt.Errorf("relation: encode row for WAL: %w", err)
			}
			raw = b
		}
		op := "i"
		switch m.Kind {
		case MutUpdate:
			op = "u"
		case MutDelete:
			op = "d"
		}
		wm[i] = walMut{Op: op, Slot: m.Slot, Row: raw}
	}
	return wm, nil
}

// --- TxStorage interface ------------------------------------------------

// BeginTxGate enters the checkpoint gate for a transaction's lifetime,
// so a checkpoint never snapshots uncommitted transaction effects.
func (s *DurableStore) BeginTxGate() { s.gate.RLock() }

// EndTxGate leaves the gate entered by BeginTxGate.
func (s *DurableStore) EndTxGate() { s.gate.RUnlock() }

// LogTxMutations appends one transaction statement's row effects;
// replay ignores them unless tx's commit record follows.
func (s *DurableStore) LogTxMutations(tx uint64, table string, muts []Mutation) (uint64, error) {
	wm, err := encodeWalMuts(muts)
	if err != nil {
		return 0, err
	}
	return s.append(recTxDML, walTxDML{Tx: tx, Table: table, Muts: wm})
}

// LogTxCommit appends the commit record that makes tx's effects
// redo-visible at recovery.
func (s *DurableStore) LogTxCommit(tx uint64) (uint64, error) {
	return s.append(recTxCommit, walTx{Tx: tx})
}

// LogTxAbort appends an advisory abort marker for tx.
func (s *DurableStore) LogTxAbort(tx uint64) (uint64, error) {
	return s.append(recTxAbort, walTx{Tx: tx})
}

// LogCreate appends a redo record carrying the table definition.
func (s *DurableStore) LogCreate(t *Table) (uint64, error) {
	return s.append(recCreate, headerFor(t))
}

// LogDrop appends a redo record dropping the named table.
func (s *DurableStore) LogDrop(name string) (uint64, error) {
	return s.append(recDrop, walDrop{Table: name})
}

// LogAlter appends a redo record adding an ordered index.
func (s *DurableStore) LogAlter(table, col string) (uint64, error) {
	return s.append(recAlter, walAlter{Table: table, Col: col})
}

func (s *DurableStore) append(typ byte, v any) (uint64, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	lsn, err := s.log.Append(typ, payload)
	if err == nil {
		s.sinceCk.Add(1)
	}
	return lsn, err
}

// WaitDurable blocks until lsn is durable under the commit policy, then
// triggers an auto-checkpoint if the WAL has grown past the threshold.
// Called outside the gate and every table lock.
func (s *DurableStore) WaitDurable(lsn uint64) error {
	err := s.log.Commit(lsn)
	s.maybeCheckpoint()
	return err
}

func (s *DurableStore) maybeCheckpoint() {
	if s.ckEvery <= 0 || s.sinceCk.Load() < s.ckEvery || s.closed.Load() {
		return
	}
	if !s.checkpointing.CompareAndSwap(false, true) {
		return // someone else is on it
	}
	defer s.checkpointing.Store(false)
	s.Checkpoint() // the unlucky committer crossing the threshold pays
}

// --- checkpointing ------------------------------------------------------

// Checkpoint freezes the database, streams a slot-preserving snapshot
// of every table through the pager, swaps the header meta to the new
// region, and truncates the WAL. Mutators block for the duration
// (readers do not).
func (s *DurableStore) Checkpoint() error {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	if s.closed.Load() {
		return fmt.Errorf("relation: durable store closed")
	}
	s.gate.Lock()
	defer s.gate.Unlock()
	lsn := s.log.LastLSN()
	data, err := s.encodeSnapshot()
	if err != nil {
		return err
	}
	if err := s.writeSnapshot(data, lsn); err != nil {
		return err
	}
	if err := s.log.Truncate(lsn); err != nil {
		return err
	}
	s.ckLSN.Store(lsn)
	s.sinceCk.Store(0)
	s.checkpoints.Add(1)
	return nil
}

// encodeSnapshot serializes every table in the slot-preserving format.
// Caller holds the gate exclusively, so table state cannot move; row
// reads still take each table's read lock for the race detector's sake.
func (s *DurableStore) encodeSnapshot() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, name := range s.db.Names() {
		t := s.db.MustTable(name)
		// headerFor takes the table's read lock internally; build it
		// before entering our own RLock to avoid recursive locking.
		head := durableHeader{snapshotHeader: headerFor(t)}
		t.mu.RLock()
		head.Slots = len(t.rows)
		head.NextAuto = t.nextAut
		if err := enc.Encode(head); err != nil {
			t.mu.RUnlock()
			return nil, err
		}
		for slot, r := range t.rows {
			if r == nil {
				continue
			}
			// A committed-dead head (deleted, retained only for late
			// snapshot readers) is not part of the durable image. Staged
			// transaction heads cannot occur here: transactions hold the
			// gate shared and the checkpoint holds it exclusively.
			if slot < len(t.meta) && t.meta[slot].end != 0 {
				continue
			}
			line := make([]any, 0, len(r)+1)
			line = append(line, slot)
			for _, c := range r {
				line = append(line, c)
			}
			if err := enc.Encode(line); err != nil {
				t.mu.RUnlock()
				return nil, err
			}
		}
		t.mu.RUnlock()
	}
	return buf.Bytes(), nil
}

// writeSnapshot writes data into a page region disjoint from the active
// one, syncs it, then swaps the header meta — the commit point — and
// reclaims file space when the new region is the prefix.
func (s *DurableStore) writeSnapshot(data []byte, lsn uint64) error {
	payload := s.pg.PayloadSize()
	need := (len(data) + payload - 1) / payload
	var old pagerMeta
	if raw := s.pg.Meta(); len(raw) > 0 {
		if err := json.Unmarshal(raw, &old); err != nil {
			return fmt.Errorf("relation: corrupt checkpoint meta: %w", err)
		}
	}
	start := 1
	if old.Pages > 0 && old.Start <= need {
		start = old.Start + old.Pages
	}
	for i := 0; i < need; i++ {
		id := start + i
		var p *pager.Page
		var err error
		if id <= s.pg.PageCount() {
			p, err = s.pg.Acquire(id)
		} else {
			p, err = s.pg.Allocate()
		}
		if err != nil {
			return err
		}
		chunk := data[i*payload:]
		if len(chunk) > payload {
			chunk = chunk[:payload]
		}
		n := copy(p.Data(), chunk)
		for j := n; j < payload; j++ {
			p.Data()[j] = 0
		}
		p.MarkDirty()
		p.Release()
	}
	newMeta, err := json.Marshal(pagerMeta{LSN: lsn, Start: start, Pages: need, Len: int64(len(data))})
	if err != nil {
		return err
	}
	// New region durable first, then the meta swap commits it.
	if err := s.pg.FlushAll(); err != nil {
		return err
	}
	if err := s.pg.Sync(); err != nil {
		return err
	}
	if err := s.pg.SetMeta(newMeta); err != nil {
		return err
	}
	if err := s.pg.FlushAll(); err != nil {
		return err
	}
	if err := s.pg.Sync(); err != nil {
		return err
	}
	if start == 1 && s.pg.PageCount() > need {
		// The old region sits past the new one; drop it.
		if err := s.pg.Truncate(need); err != nil {
			return err
		}
		if err := s.pg.FlushAll(); err != nil {
			return err
		}
	}
	return nil
}

// --- lifecycle ----------------------------------------------------------

// Bulk runs fn with journaling detached — the unlogged fast path for
// initial data loads — then reattaches and checkpoints so the loaded
// state is durable. The store must not be serving concurrent mutators.
func (s *DurableStore) Bulk(fn func() error) error {
	s.db.detachStorage()
	err := fn()
	s.db.attachStorage(s)
	if err != nil {
		return err
	}
	return s.Checkpoint()
}

// Close drains the store: outstanding WAL records are synced and dirty
// pages flushed, but the WAL is NOT truncated — reopening replays it.
// Call Checkpoint first for a clean (replay-free) shutdown. Idempotent.
func (s *DurableStore) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.ckMu.Lock() // let an in-flight checkpoint finish
	defer s.ckMu.Unlock()
	err := s.log.Close()
	if perr := s.pg.Close(); err == nil {
		err = perr
	}
	return err
}

// DurableStats is a point-in-time view of the store for /api/stats.
type DurableStats struct {
	Dir              string      `json:"dir"`
	Policy           string      `json:"policy"`
	WAL              wal.Stats   `json:"wal"`
	Pager            pager.Stats `json:"pager"`
	Checkpoints      uint64      `json:"checkpoints"`
	CheckpointLSN    uint64      `json:"checkpointLSN"`
	RecordsSinceCk   int64       `json:"recordsSinceCheckpoint"`
	RecoveredRecords int         `json:"recoveredRecords"`
}

// Stats returns WAL, pager and checkpoint counters.
func (s *DurableStore) Stats() DurableStats {
	ws := s.log.Stats()
	return DurableStats{
		Dir:              s.dir,
		Policy:           s.log.Policy().String(),
		WAL:              ws,
		Pager:            s.pg.Stats(),
		Checkpoints:      s.checkpoints.Load(),
		CheckpointLSN:    s.ckLSN.Load(),
		RecordsSinceCk:   s.sinceCk.Load(),
		RecoveredRecords: s.recovered,
	}
}
