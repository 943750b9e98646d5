package relation

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"courserank/internal/wal"
)

func getVal(t *testing.T, tbl *Table, id int64) (string, bool) {
	t.Helper()
	r, ok := tbl.Get(id)
	if !ok {
		return "", false
	}
	return r[1].(string), true
}

func TestTxSnapshotIsolation(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(kvTable())
	tbl.MustInsert(Row{int64(1), "old", int64(10)})

	tx := db.Begin()
	defer tx.Rollback()
	// A write committed after the snapshot is invisible to the
	// transaction but immediately visible to plain readers.
	if err := tbl.UpdateByKey([]Value{int64(1)}, func(r Row) Row { r[1] = "new"; return r }); err != nil {
		t.Fatal(err)
	}
	if v, _ := getVal(t, tbl, 1); v != "new" {
		t.Fatalf("plain read = %q, want new", v)
	}
	if r, ok := tx.Get(tbl, int64(1)); !ok || r[1] != "old" {
		t.Fatalf("tx read = %v, want old", r)
	}
	// Index and scan paths honor the snapshot too.
	if got := tx.Lookup(tbl, "Num", int64(10)); len(got) != 1 || got[0][1] != "old" {
		t.Fatalf("tx Lookup = %v, want the old version", got)
	}
	n := 0
	tx.Scan(tbl, func(r Row) bool {
		if r[1] != "old" {
			t.Fatalf("tx Scan saw %v", r)
		}
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("tx Scan saw %d rows, want 1", n)
	}
	// Rows inserted after the snapshot are invisible.
	tbl.MustInsert(Row{int64(2), "later", int64(20)})
	if _, ok := tx.Get(tbl, int64(2)); ok {
		t.Fatal("tx sees a row inserted after its snapshot")
	}
}

func TestTxReadYourOwnWrites(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(kvTable())
	tbl.MustInsert(Row{int64(1), "committed", int64(1)})

	tx := db.Begin()
	defer tx.Rollback()
	if _, err := tx.Insert(tbl, Row{int64(2), "mine", int64(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(1) },
		func(r Row) Row { r[1] = "mine too"; return r }); err != nil {
		t.Fatal(err)
	}
	// The transaction sees both of its writes.
	if r, ok := tx.Get(tbl, int64(2)); !ok || r[1] != "mine" {
		t.Fatalf("tx does not see its own insert: %v", r)
	}
	if r, ok := tx.Get(tbl, int64(1)); !ok || r[1] != "mine too" {
		t.Fatalf("tx does not see its own update: %v", r)
	}
	// Nobody else does.
	if _, ok := tbl.Get(int64(2)); ok {
		t.Fatal("plain reader sees an uncommitted insert")
	}
	if v, _ := getVal(t, tbl, 1); v != "committed" {
		t.Fatalf("plain reader sees uncommitted update: %q", v)
	}
	other := db.Begin()
	if _, ok := other.Get(tbl, int64(2)); ok {
		t.Fatal("another tx sees an uncommitted insert")
	}
	other.Rollback()
	// Delete your own staged insert: gone for you, never there for others.
	if n, err := tx.DeleteWhere(tbl, func(r Row) bool { return r[0] == int64(2) }); err != nil || n != 1 {
		t.Fatalf("DeleteWhere own insert = %d, %v", n, err)
	}
	if _, ok := tx.Get(tbl, int64(2)); ok {
		t.Fatal("tx sees its own deleted insert")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Get(int64(2)); ok {
		t.Fatal("erased insert became visible after commit")
	}
	if v, _ := getVal(t, tbl, 1); v != "mine too" {
		t.Fatalf("committed update not visible: %q", v)
	}
}

func TestTxRollbackRestoresEverything(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(kvTable())
	tbl.MustInsert(Row{int64(1), "a", int64(10)})
	tbl.MustInsert(Row{int64(2), "b", int64(20)})

	tx := db.Begin()
	if _, err := tx.Insert(tbl, Row{int64(3), "c", int64(30)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(1) },
		func(r Row) Row { r[1] = "A"; r[2] = int64(11); return r }); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.DeleteWhere(tbl, func(r Row) bool { return r[0] == int64(2) }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tbl.Len())
	}
	if v, ok := getVal(t, tbl, 1); !ok || v != "a" {
		t.Fatalf("row 1 = %q, want a", v)
	}
	if v, ok := getVal(t, tbl, 2); !ok || v != "b" {
		t.Fatalf("row 2 = %q, want b", v)
	}
	if _, ok := tbl.Get(int64(3)); ok {
		t.Fatal("rolled-back insert survived")
	}
	if got := tbl.Lookup("Num", int64(11)); len(got) != 0 {
		t.Fatalf("index kept rolled-back entry: %v", got)
	}
	if got := tbl.Lookup("Num", int64(10)); len(got) != 1 {
		t.Fatalf("index lost original entry: %v", got)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Commit after Rollback = %v, want ErrTxDone", err)
	}
}

func TestTxWriteWriteConflict(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(kvTable())
	tbl.MustInsert(Row{int64(1), "base", int64(1)})

	t.Run("staged-vs-tx", func(t *testing.T) {
		tx1 := db.Begin()
		tx2 := db.Begin()
		if _, err := tx1.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(1) },
			func(r Row) Row { r[1] = "one"; return r }); err != nil {
			t.Fatal(err)
		}
		if _, err := tx2.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(1) },
			func(r Row) Row { r[1] = "two"; return r }); !errors.Is(err, ErrTxConflict) {
			t.Fatalf("second writer got %v, want ErrTxConflict", err)
		}
		// tx2 is poisoned: Commit reports the conflict and rolls back.
		if err := tx2.Commit(); !errors.Is(err, ErrTxConflict) {
			t.Fatalf("poisoned Commit = %v, want ErrTxConflict", err)
		}
		if err := tx1.Commit(); err != nil {
			t.Fatal(err)
		}
		if v, _ := getVal(t, tbl, 1); v != "one" {
			t.Fatalf("winner's write lost: %q", v)
		}
	})

	t.Run("committed-after-snapshot", func(t *testing.T) {
		tx := db.Begin()
		if err := tbl.UpdateByKey([]Value{int64(1)}, func(r Row) Row { r[1] = "newer"; return r }); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(1) },
			func(r Row) Row { r[1] = "stale"; return r }); !errors.Is(err, ErrTxConflict) {
			t.Fatalf("stale writer got %v, want ErrTxConflict", err)
		}
		tx.Rollback()
		if v, _ := getVal(t, tbl, 1); v != "newer" {
			t.Fatalf("first committer's write lost: %q", v)
		}
	})

	t.Run("autocommit-vs-staged", func(t *testing.T) {
		tx := db.Begin()
		if _, err := tx.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(1) },
			func(r Row) Row { r[1] = "staged"; return r }); err != nil {
			t.Fatal(err)
		}
		if err := tbl.UpdateByKey([]Value{int64(1)}, func(r Row) Row { r[1] = "auto"; return r }); !errors.Is(err, ErrTxConflict) {
			t.Fatalf("autocommit writer got %v, want ErrTxConflict", err)
		}
		tx.Rollback()
	})

	st := db.TxStats()
	if st.Conflicts < 3 {
		t.Fatalf("Conflicts = %d, want >= 3", st.Conflicts)
	}
	if st.Active != 0 {
		t.Fatalf("Active = %d, want 0", st.Active)
	}
}

func TestTxInsertAfterOwnDelete(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(kvTable())
	tbl.MustInsert(Row{int64(1), "orig", int64(1)})

	tx := db.Begin()
	if n, err := tx.DeleteWhere(tbl, func(r Row) bool { return r[0] == int64(1) }); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if _, err := tx.Insert(tbl, Row{int64(1), "reborn", int64(2)}); err != nil {
		t.Fatalf("reinsert of own-deleted key: %v", err)
	}
	if r, ok := tx.Get(tbl, int64(1)); !ok || r[1] != "reborn" {
		t.Fatalf("tx read after reinsert = %v", r)
	}
	if v, _ := getVal(t, tbl, 1); v != "orig" {
		t.Fatalf("plain read mid-tx = %q, want orig", v)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := getVal(t, tbl, 1); v != "reborn" {
		t.Fatalf("after commit = %q, want reborn", v)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
}

// TestTxCommitAtomicity is the isolation property test: concurrent
// readers poll a multi-row invariant while transactions move value
// between two rows; under snapshot isolation no reader may ever observe
// a partial transaction (a sum off balance).
func TestTxCommitAtomicity(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(MustTable("Acct",
		MustSchema(NotNullCol("ID", TypeInt), NotNullCol("Bal", TypeInt)),
		WithPrimaryKey("ID")))
	tbl.MustInsert(Row{int64(1), int64(500)})
	tbl.MustInsert(Row{int64(2), int64(500)})

	const writers, transfers = 4, 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var violations atomic.Int64

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Plain readers use the latest snapshot; transactional
				// readers a fixed one. Both must see the invariant.
				rtx := db.Begin()
				var sum int64
				n := 0
				rtx.Scan(tbl, func(r Row) bool { sum += r[1].(int64); n++; return true })
				rtx.Rollback()
				if n == 2 && sum != 1000 {
					violations.Add(1)
				}
				var psum int64
				pn := 0
				tbl.Scan(func(_ int, r Row) bool { psum += r[1].(int64); pn++; return true })
				if pn == 2 && psum != 1000 {
					violations.Add(1)
				}
			}
		}()
	}

	var committed atomic.Int64
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(seed int64) {
			defer wwg.Done()
			for i := 0; i < transfers; i++ {
				amt := (seed*int64(i))%37 + 1
				tx := db.Begin()
				_, err1 := tx.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(1) },
					func(r Row) Row { r[1] = r[1].(int64) - amt; return r })
				_, err2 := tx.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(2) },
					func(r Row) Row { r[1] = r[1].(int64) + amt; return r })
				if err1 != nil || err2 != nil {
					tx.Rollback()
					continue
				}
				if err := tx.Commit(); err == nil {
					committed.Add(1)
				} else if !errors.Is(err, ErrTxConflict) {
					t.Errorf("commit: %v", err)
				}
			}
		}(int64(w + 1))
	}
	wwg.Wait()
	close(stop)
	wg.Wait()

	if violations.Load() != 0 {
		t.Fatalf("%d partial-transaction observations", violations.Load())
	}
	if committed.Load() == 0 {
		t.Fatal("no transfer ever committed")
	}
	var sum int64
	tbl.Scan(func(_ int, r Row) bool { sum += r[1].(int64); return true })
	if sum != 1000 {
		t.Fatalf("final sum = %d, want 1000", sum)
	}
	st := db.TxStats()
	if st.Active != 0 {
		t.Fatalf("Active = %d after the storm", st.Active)
	}
}

func TestTxVersionGC(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(kvTable())
	tbl.MustInsert(Row{int64(1), "v0", int64(0)})

	// Pin a snapshot, then churn versions under it.
	pin := db.Begin()
	for i := 1; i <= 5; i++ {
		tx := db.Begin()
		if _, err := tx.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(1) },
			func(r Row) Row { r[1] = fmt.Sprintf("v%d", i); return r }); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if r, ok := pin.Get(tbl, int64(1)); !ok || r[1] != "v0" {
		t.Fatalf("pinned snapshot reads %v, want v0", r)
	}
	pin.Rollback()

	tbl.MaybeGC()
	tbl.mu.RLock()
	residue := len(tbl.vslots)
	var chain int
	for _, m := range tbl.meta {
		for n := m.prev; n != nil; n = n.prev {
			chain++
		}
	}
	tbl.mu.RUnlock()
	if residue != 0 || chain != 0 {
		t.Fatalf("after GC: %d residue slots, %d chain nodes", residue, chain)
	}
	if v, _ := getVal(t, tbl, 1); v != "v5" {
		t.Fatalf("latest = %q, want v5", v)
	}
	if got := tbl.Lookup("Num", int64(0)); len(got) != 1 {
		t.Fatalf("Lookup after GC = %v", got)
	}
}

// failingStore is a Storage stub whose LogMutations fails on demand —
// the poisoned-log regression harness for write-path error surfacing.
type failingStore struct {
	mu   sync.Mutex
	fail bool
	logs int
}

func (f *failingStore) BeginMutate() {}
func (f *failingStore) EndMutate()   {}
func (f *failingStore) LogMutations(string, []Mutation) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return 0, fmt.Errorf("poisoned log")
	}
	f.logs++
	return uint64(f.logs), nil
}
func (f *failingStore) LogCreate(*Table) (uint64, error)        { return 0, nil }
func (f *failingStore) LogDrop(string) (uint64, error)          { return 0, nil }
func (f *failingStore) LogAlter(string, string) (uint64, error) { return 0, nil }
func (f *failingStore) WaitDurable(uint64) error                { return nil }

// TestDeleteWherePoisonedLog is the satellite regression: a WAL append
// failure during DeleteWhere must surface as a non-nil error (not a
// silent 0) and leave the rows in place.
func TestDeleteWherePoisonedLog(t *testing.T) {
	db := NewDB()
	tbl := db.MustCreate(kvTable())
	fs := &failingStore{}
	db.attachStorage(fs)
	for i := 0; i < 3; i++ {
		tbl.MustInsert(Row{nil, fmt.Sprintf("v%d", i), int64(i)})
	}

	fs.mu.Lock()
	fs.fail = true
	fs.mu.Unlock()
	n, err := tbl.DeleteWhere(func(Row) bool { return true })
	if err == nil {
		t.Fatal("DeleteWhere on a poisoned log returned nil error")
	}
	if n != 0 {
		t.Fatalf("DeleteWhere applied %d deletes despite log failure", n)
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d after failed delete, want 3", tbl.Len())
	}
	fs.mu.Lock()
	fs.fail = false
	fs.mu.Unlock()
	if n, err := tbl.DeleteWhere(func(Row) bool { return true }); err != nil || n != 3 {
		t.Fatalf("recovered DeleteWhere = %d, %v", n, err)
	}
}

func TestTxDurableCommitRecovery(t *testing.T) {
	dir := t.TempDir()
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreate(kvTable())
	tbl := db.MustTable("KV")
	tbl.MustInsert(Row{int64(1), "seed", int64(0)})

	tx := db.Begin()
	if _, err := tx.Insert(tbl, Row{int64(2), "tx-insert", int64(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(1) },
		func(r Row) Row { r[1] = "tx-update"; return r }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(db)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	db2, store2, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got := fingerprint(db2); !equalPrints(want, got) {
		t.Fatalf("recovered state differs\nwant %v\ngot  %v", want, got)
	}
}

// TestKillReplayMidTransaction extends the kill-replay harness to
// transactions: a crash before the commit record must recover NONE of
// the transaction's effects (even though its statement records are in
// the WAL), a crash after rollback likewise, and a crash after commit
// must recover ALL of them.
func TestKillReplayMidTransaction(t *testing.T) {
	dir := t.TempDir()
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db.MustCreate(kvTable())
	tbl := db.MustTable("KV")
	tbl.MustInsert(Row{int64(1), "base", int64(0)})
	base := fingerprint(db)

	check := func(label, snapDir string, want map[string][]string) {
		t.Helper()
		db2, store2, err := OpenDurable(snapDir, DurableOptions{Sync: wal.SyncAlways})
		if err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		defer store2.Close()
		if got := fingerprint(db2); !equalPrints(want, got) {
			t.Fatalf("%s: recovered state differs\nwant %v\ngot  %v", label, want, got)
		}
	}

	// Crash with an open transaction: statements journaled, no commit.
	tx := db.Begin()
	if _, err := tx.Insert(tbl, Row{int64(10), "half", int64(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.UpdateWhere(tbl, func(r Row) bool { return r[0] == int64(1) },
		func(r Row) Row { r[1] = "half-update"; return r }); err != nil {
		t.Fatal(err)
	}
	midDir := copyDir(t, dir)
	check("mid-transaction", midDir, base)

	// Crash after rollback: the abort marker (or its absence) must not
	// resurrect anything either.
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	check("after-rollback", copyDir(t, dir), base)

	// Crash after commit: everything must be there.
	tx2 := db.Begin()
	if _, err := tx2.Insert(tbl, Row{int64(20), "whole", int64(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.DeleteWhere(tbl, func(r Row) bool { return r[0] == int64(1) }); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(db)
	check("after-commit", copyDir(t, dir), want)
}

// TestTxCheckpointWaitsForOpenTx pins the gate discipline: a checkpoint
// cannot run while a transaction is open, so a checkpointed snapshot
// never contains uncommitted effects.
func TestTxCheckpointWaitsForOpenTx(t *testing.T) {
	dir := t.TempDir()
	db, store, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db.MustCreate(kvTable())
	tbl := db.MustTable("KV")

	tx := db.Begin()
	if _, err := tx.Insert(tbl, Row{int64(1), "staged", int64(1)}); err != nil {
		t.Fatal(err)
	}
	ckDone := make(chan error, 1)
	go func() { ckDone <- store.Checkpoint() }()
	select {
	case err := <-ckDone:
		t.Fatalf("checkpoint finished under an open transaction: %v", err)
	default:
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-ckDone; err != nil {
		t.Fatalf("checkpoint after commit: %v", err)
	}
	// The checkpoint image alone (WAL truncated) must hold the tx row.
	db2, store2, err := OpenDurable(copyDir(t, dir), DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if r, ok := db2.MustTable("KV").Get(int64(1)); !ok || r[1] != "staged" {
		t.Fatalf("checkpointed tx row = %v", r)
	}
}
