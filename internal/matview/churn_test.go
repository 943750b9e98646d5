package matview

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"courserank/internal/relation"
)

// TestChurnStaleBoundAndNoTornSnapshots is the refresh-lifecycle race
// test: concurrent readers against a DML storm, asserting two
// invariants on every single read —
//
//  1. snapshots are never torn: the writer holds the table's write lock
//     for a whole round (every row set to the same value) and the build
//     reads under one read lock, so every legal snapshot is UNIFORM; a
//     reader observing a mixed snapshot caught a torn publish;
//  2. the staleness bound is honored: a read served stale reports a
//     known-staleness inside the view's bound (fresh and built serves
//     are exact).
//
// Run under -race it also shakes out unsynchronized access between
// readers, the background workers and the single-flight path.
func TestChurnStaleBoundAndNoTornSnapshots(t *testing.T) {
	const (
		rows     = 64
		readers  = 4
		bound    = 25 * time.Millisecond
		duration = 400 * time.Millisecond
	)
	db := relation.NewDB()
	tbl := relation.MustTable("KV",
		relation.MustSchema(
			relation.NotNullCol("ID", relation.TypeInt),
			relation.NotNullCol("Val", relation.TypeInt),
		), relation.WithPrimaryKey("ID"))
	db.MustCreate(tbl)
	for i := 1; i <= rows; i++ {
		tbl.MustInsert(relation.Row{int64(i), int64(0)})
	}

	reg := NewRegistry(db, 2)
	reg.Start()
	defer reg.Close()
	// The build copies every Val under one Scan (a single read lock), so
	// a snapshot taken between writer rounds is all-equal.
	v, err := reg.Register(Options{
		Name: "vals", Deps: []string{"KV"}, Mode: Async, MaxStale: bound,
		Build: func() (any, error) {
			var vals []int64
			tbl.Scan(func(_ int, r relation.Row) bool {
				vals = append(vals, r[1].(int64))
				return true
			})
			return vals, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var staleServes, freshServes, builtServes atomic.Int64

	// Writer: rounds of UpdateWhere setting EVERY row to the round
	// number — one write-lock pass per round.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		round := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			round++
			if _, err := tbl.UpdateWhere(
				func(relation.Row) bool { return true },
				func(r relation.Row) relation.Row { r[1] = round; return r },
			); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				val, serve, err := v.Get()
				if err != nil {
					t.Error(err)
					return
				}
				vals := val.([]int64)
				if len(vals) != rows {
					t.Errorf("snapshot has %d rows, want %d", len(vals), rows)
					return
				}
				for _, x := range vals[1:] {
					if x != vals[0] {
						t.Errorf("torn snapshot: mixed values %d and %d", vals[0], x)
						return
					}
				}
				switch serve.Kind {
				case ServeStale:
					staleServes.Add(1)
					if serve.StaleFor > bound {
						t.Errorf("stale serve staleness %v exceeds bound %v", serve.StaleFor, bound)
						return
					}
				case ServeFresh:
					freshServes.Add(1)
				default:
					builtServes.Add(1)
				}
			}
		}()
	}

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	t.Logf("serves: %d fresh, %d stale, %d built; view stats %+v",
		freshServes.Load(), staleServes.Load(), builtServes.Load(), v.Stats())
	if staleServes.Load() == 0 {
		t.Error("churn never exercised the stale-bounded path")
	}
}

// TestChurnTableReplacement races readers against DROP/CREATE cycles:
// reads during the gap may fail (the build sees no table) but must
// never serve rows from the dropped table's snapshot once the
// replacement exists, and the registry must survive the whole storm.
func TestChurnTableReplacement(t *testing.T) {
	db := relation.NewDB()
	mk := func(tag int64) *relation.Table {
		tbl := relation.MustTable("KV",
			relation.MustSchema(
				relation.NotNullCol("ID", relation.TypeInt),
				relation.NotNullCol("Val", relation.TypeInt),
			), relation.WithPrimaryKey("ID"))
		tbl.MustInsert(relation.Row{int64(1), tag})
		return tbl
	}
	db.MustCreate(mk(0))

	reg := NewRegistry(db, 1)
	reg.Start()
	defer reg.Close()
	v, err := reg.Register(Options{
		Name: "tag", Deps: []string{"KV"}, Mode: Async, MaxStale: time.Hour,
		Build: func() (any, error) {
			cur, ok := db.Table("KV")
			if !ok {
				return nil, errUnknownTable
			}
			var tag int64
			cur.Scan(func(_ int, r relation.Row) bool { tag = r[1].(int64); return true })
			return tag, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			gen++
			db.Drop("KV")
			db.MustCreate(mk(gen))
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := v.Get()
				if err != nil && !strings.Contains(err.Error(), "unknown table") {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}

var errUnknownTable = &tableError{}

type tableError struct{}

func (*tableError) Error() string { return "unknown table KV (dropped mid-churn)" }
