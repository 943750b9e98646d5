package matview

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"courserank/internal/relation"
)

// kvDB builds a database with one KV(ID, Val) table holding n rows
// Val = 10*ID.
func kvDB(t testing.TB, n int) (*relation.DB, *relation.Table) {
	t.Helper()
	db := relation.NewDB()
	tbl := relation.MustTable("KV",
		relation.MustSchema(
			relation.NotNullCol("ID", relation.TypeInt),
			relation.NotNullCol("Val", relation.TypeInt),
		), relation.WithPrimaryKey("ID"))
	db.MustCreate(tbl)
	for i := 1; i <= n; i++ {
		tbl.MustInsert(relation.Row{int64(i), int64(10 * i)})
	}
	return db, tbl
}

// sumKV is a build function summing KV.Val — cheap, deterministic, and
// sensitive to every row mutation.
func sumKV(tbl *relation.Table, builds *atomic.Int64) func() (any, error) {
	return func() (any, error) {
		builds.Add(1)
		var sum int64
		tbl.Scan(func(_ int, r relation.Row) bool {
			sum += r[1].(int64)
			return true
		})
		return sum, nil
	}
}

func TestSyncServing(t *testing.T) {
	db, tbl := kvDB(t, 4)
	reg := NewRegistry(db, 1)
	var builds atomic.Int64
	v, err := reg.Register(Options{Name: "sum", Deps: []string{"KV"}, Build: sumKV(tbl, &builds)})
	if err != nil {
		t.Fatal(err)
	}

	val, serve, err := v.Get()
	if err != nil {
		t.Fatal(err)
	}
	if val.(int64) != 100 || serve.Kind != ServeBuilt {
		t.Fatalf("cold read = %v (%v), want 100 built", val, serve.Kind)
	}
	val, serve, _ = v.Get()
	if val.(int64) != 100 || serve.Kind != ServeFresh || builds.Load() != 1 {
		t.Fatalf("warm read = %v (%v, builds=%d), want fresh hit off 1 build", val, serve.Kind, builds.Load())
	}

	// Row DML stales the view; a sync read blocks on the rebuild and
	// sees the write.
	tbl.MustInsert(relation.Row{int64(5), int64(50)})
	val, serve, _ = v.Get()
	if val.(int64) != 150 || serve.Kind != ServeBuilt || builds.Load() != 2 {
		t.Fatalf("post-DML read = %v (%v, builds=%d), want 150 rebuilt once", val, serve.Kind, builds.Load())
	}

	st := v.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Refreshes != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 2 refreshes", st)
	}
}

// TestSyncSingleFlight is the cold-stampede regression: N concurrent
// cold readers must share ONE build, not run N.
func TestSyncSingleFlight(t *testing.T) {
	db, tbl := kvDB(t, 4)
	reg := NewRegistry(db, 1)
	var builds atomic.Int64
	slowBuild := func() (any, error) {
		builds.Add(1)
		time.Sleep(30 * time.Millisecond) // hold the flight open
		var sum int64
		tbl.Scan(func(_ int, r relation.Row) bool { sum += r[1].(int64); return true })
		return sum, nil
	}
	v, err := reg.Register(Options{Name: "sum", Deps: []string{"KV"}, Build: slowBuild})
	if err != nil {
		t.Fatal(err)
	}

	const readers = 16
	var wg sync.WaitGroup
	vals := make([]int64, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			val, _, err := v.Get()
			if err != nil {
				t.Error(err)
				return
			}
			vals[i] = val.(int64)
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d concurrent cold reads ran %d builds, want 1", readers, builds.Load())
	}
	for i, got := range vals {
		if got != 100 {
			t.Fatalf("reader %d got %d, want 100", i, got)
		}
	}
}

func TestAsyncStaleBoundedServing(t *testing.T) {
	db, tbl := kvDB(t, 4)
	reg := NewRegistry(db, 1)
	reg.Start()
	defer reg.Close()
	var builds atomic.Int64
	v, err := reg.Register(Options{
		Name: "sum", Deps: []string{"KV"}, Mode: Async, MaxStale: time.Minute,
		Build: sumKV(tbl, &builds),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, serve, err := v.Get(); err != nil || serve.Kind != ServeBuilt {
		t.Fatalf("cold read: %v %v", serve.Kind, err)
	}

	// DML stales the view; the next read is inside the bound, so it
	// serves the OLD snapshot immediately and refreshes behind.
	tbl.MustInsert(relation.Row{int64(5), int64(50)})
	val, serve, err := v.Get()
	if err != nil {
		t.Fatal(err)
	}
	if serve.Kind != ServeStale || val.(int64) != 100 {
		t.Fatalf("bounded read = %v (%v), want the previous 100 served stale", val, serve.Kind)
	}
	if serve.StaleFor > time.Minute {
		t.Fatalf("stale serve staleness %v exceeds the bound", serve.StaleFor)
	}

	// The background refresh lands; soon a read is a fresh hit on the
	// new value.
	deadline := time.Now().Add(2 * time.Second)
	for {
		val, serve, err = v.Get()
		if err != nil {
			t.Fatal(err)
		}
		if serve.Kind == ServeFresh && val.(int64) == 150 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background refresh never landed: %v (%v)", val, serve.Kind)
		}
		time.Sleep(time.Millisecond)
	}
	if st := v.Stats(); st.StaleHits == 0 {
		t.Fatalf("stats = %+v, want a stale hit recorded", st)
	}
}

// TestAsyncBeyondBoundBlocks: the staleness clock starts when a read
// first OBSERVES the snapshot stale; once known-stale for longer than
// the bound (here: no worker pool ever refreshes), reads must block and
// rebuild rather than keep serving.
func TestAsyncBeyondBoundBlocks(t *testing.T) {
	db, tbl := kvDB(t, 4)
	reg := NewRegistry(db, 1) // never started: past the bound MUST still be correct
	var builds atomic.Int64
	v, err := reg.Register(Options{
		Name: "sum", Deps: []string{"KV"}, Mode: Async, MaxStale: 5 * time.Millisecond,
		Build: sumKV(tbl, &builds),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Get(); err != nil {
		t.Fatal(err)
	}
	tbl.MustInsert(relation.Row{int64(5), int64(50)})
	// First read after the write: observes the staleness, starts the
	// clock, serves the old snapshot instantly.
	val, serve, err := v.Get()
	if err != nil {
		t.Fatal(err)
	}
	if serve.Kind != ServeStale || val.(int64) != 100 {
		t.Fatalf("first stale observation = %v (%v), want the old 100 served", val, serve.Kind)
	}
	time.Sleep(10 * time.Millisecond) // known-stale past the bound, no refresher running
	val, serve, err = v.Get()
	if err != nil {
		t.Fatal(err)
	}
	if serve.Kind != ServeBuilt || val.(int64) != 150 {
		t.Fatalf("read past the bound = %v (%v), want a blocking rebuild to 150", val, serve.Kind)
	}
}

// TestSchemaEpochInvalidates is the DDL test: an epoch bump must drop
// the snapshot and rebuild — an async view must NOT serve stale-schema
// rows even inside its staleness bound.
func TestSchemaEpochInvalidates(t *testing.T) {
	db, tbl := kvDB(t, 4)
	reg := NewRegistry(db, 1)
	var builds atomic.Int64
	v, err := reg.Register(Options{
		Name: "sum", Deps: []string{"KV"}, Mode: Async, MaxStale: time.Hour,
		Build: sumKV(tbl, &builds),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Get(); err != nil {
		t.Fatal(err)
	}
	// In-place DDL: bumps SchemaEpoch without touching the version.
	if err := tbl.AddOrderedIndex("Val"); err != nil {
		t.Fatal(err)
	}
	_, serve, err := v.Get()
	if err != nil {
		t.Fatal(err)
	}
	if serve.Kind != ServeBuilt {
		t.Fatalf("post-DDL read served %v, want a rebuild (stale-schema rows must never serve)", serve.Kind)
	}
	if st := v.Stats(); st.Invalidations != 1 || st.StaleHits != 0 {
		t.Fatalf("stats = %+v, want 1 invalidation and no stale hit", st)
	}
}

// TestTableReplacedInvalidates covers DROP/CREATE: the fingerprint pins
// table identity, so a same-named replacement cannot serve the old
// snapshot.
func TestTableReplacedInvalidates(t *testing.T) {
	db, tbl := kvDB(t, 4)
	reg := NewRegistry(db, 1)
	var builds atomic.Int64
	build := func() (any, error) {
		builds.Add(1)
		cur, ok := db.Table("KV")
		if !ok {
			return nil, errors.New("KV missing")
		}
		var sum int64
		cur.Scan(func(_ int, r relation.Row) bool { sum += r[1].(int64); return true })
		return sum, nil
	}
	v, err := reg.Register(Options{Name: "sum", Deps: []string{"KV"}, Mode: Async, MaxStale: time.Hour, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Get(); err != nil {
		t.Fatal(err)
	}
	db.Drop("KV")
	repl := relation.MustTable("KV", tbl.Schema())
	db.MustCreate(repl)
	repl.MustInsert(relation.Row{int64(1), int64(7)})
	val, serve, err := v.Get()
	if err != nil {
		t.Fatal(err)
	}
	if serve.Kind != ServeBuilt || val.(int64) != 7 {
		t.Fatalf("post-replace read = %v (%v), want 7 rebuilt", val, serve.Kind)
	}
}

// TestJoinedBuildRevalidates: a blocking read that JOINS an in-flight
// build may be handed data from before its own write — the flight
// started earlier. The strict rebuild path must detect the stale result
// and run one more build, so sync reads keep read-your-writes.
func TestJoinedBuildRevalidates(t *testing.T) {
	db, tbl := kvDB(t, 2) // sum = 30
	reg := NewRegistry(db, 1)
	gate := make(chan struct{})
	var firstBuild atomic.Bool
	firstBuild.Store(true)
	var builds atomic.Int64
	v, err := reg.Register(Options{
		Name: "sum", Deps: []string{"KV"},
		Build: func() (any, error) {
			builds.Add(1)
			var sum int64
			tbl.Scan(func(_ int, r relation.Row) bool { sum += r[1].(int64); return true })
			if firstBuild.CompareAndSwap(true, false) {
				<-gate // hold the first flight open with its pre-write data
			}
			return sum, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	aDone := make(chan int64, 1)
	go func() {
		val, _, err := v.Get()
		if err != nil {
			t.Error(err)
			aDone <- -1
			return
		}
		aDone <- val.(int64)
	}()
	for builds.Load() == 0 {
		time.Sleep(100 * time.Microsecond) // wait for A's build to be in flight
	}
	// The write commits while A's build (fingerprinted before it) hangs.
	tbl.MustInsert(relation.Row{int64(3), int64(100)})
	bDone := make(chan int64, 1)
	go func() {
		val, _, err := v.Get()
		if err != nil {
			t.Error(err)
			bDone <- -1
			return
		}
		bDone <- val.(int64)
	}()
	time.Sleep(10 * time.Millisecond) // let B reach and join the flight
	close(gate)
	if got := <-aDone; got != 30 {
		t.Fatalf("A (who started the pre-write build) = %d, want 30", got)
	}
	if got := <-bDone; got != 130 {
		t.Fatalf("B read after its write = %d, want 130 (joined result revalidated)", got)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want the joined stale result to trigger exactly one more", builds.Load())
	}
}

// TestAbsentDependencyCaches: a view whose dependency table does not
// exist yet must still cache its (empty) snapshot — the fingerprint
// records the absence and matches while the table stays absent — and
// must invalidate the moment the table is created.
func TestAbsentDependencyCaches(t *testing.T) {
	db := relation.NewDB()
	reg := NewRegistry(db, 1)
	var builds atomic.Int64
	v, err := reg.Register(Options{
		Name: "sum", Deps: []string{"KV"},
		Build: func() (any, error) {
			builds.Add(1)
			t, ok := db.Table("KV")
			if !ok {
				return int64(0), nil
			}
			var sum int64
			t.Scan(func(_ int, r relation.Row) bool { sum += r[1].(int64); return true })
			return sum, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if val, _, err := v.Get(); err != nil || val.(int64) != 0 {
		t.Fatalf("absent-table read = %v, %v", val, err)
	}
	if _, serve, _ := v.Get(); serve.Kind != ServeFresh || builds.Load() != 1 {
		t.Fatalf("second absent-table read = %v after %d builds, want a fresh hit off 1 build",
			serve.Kind, builds.Load())
	}
	tbl := relation.MustTable("KV",
		relation.MustSchema(
			relation.NotNullCol("ID", relation.TypeInt),
			relation.NotNullCol("Val", relation.TypeInt),
		))
	db.MustCreate(tbl)
	tbl.MustInsert(relation.Row{int64(1), int64(7)})
	if val, serve, _ := v.Get(); serve.Kind != ServeBuilt || val.(int64) != 7 {
		t.Fatalf("post-create read = %v (%v), want 7 rebuilt", val, serve.Kind)
	}
}

// TestGetOrRegisterOptionMismatch: reuse under one name requires the
// serving contract to agree.
func TestGetOrRegisterOptionMismatch(t *testing.T) {
	db, tbl := kvDB(t, 1)
	reg := NewRegistry(db, 1)
	build := sumKV(tbl, new(atomic.Int64))
	if _, err := reg.GetOrRegister(Options{Name: "v", Deps: []string{"KV"}, Build: build}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.GetOrRegister(Options{Name: "v", Deps: []string{"KV"}, Mode: Async, MaxStale: time.Second, Build: build}); err == nil {
		t.Fatal("conflicting serving options should not silently reuse the view")
	}
}

func TestBuildErrorRetries(t *testing.T) {
	db, tbl := kvDB(t, 2)
	reg := NewRegistry(db, 1)
	fail := atomic.Bool{}
	fail.Store(true)
	var builds atomic.Int64
	build := func() (any, error) {
		builds.Add(1)
		if fail.Load() {
			return nil, errors.New("boom")
		}
		return sumKV(tbl, new(atomic.Int64))()
	}
	v, err := reg.Register(Options{Name: "sum", Deps: []string{"KV"}, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Get(); err == nil {
		t.Fatal("failing build should surface its error")
	}
	if st := v.Stats(); st.Errors != 1 || st.HasSnapshot {
		t.Fatalf("stats = %+v, want 1 error and no snapshot", st)
	}
	fail.Store(false)
	val, _, err := v.Get()
	if err != nil || val.(int64) != 30 {
		t.Fatalf("recovered read = %v, %v; want 30", val, err)
	}
}

func TestRegistryRegistration(t *testing.T) {
	db, tbl := kvDB(t, 1)
	reg := NewRegistry(db, 1)
	opts := Options{Name: "v", Deps: []string{"KV"}, Build: sumKV(tbl, new(atomic.Int64))}
	v1, err := reg.Register(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(opts); err == nil {
		t.Fatal("duplicate Register should fail")
	}
	v2, err := reg.GetOrRegister(opts)
	if err != nil || v2 != v1 {
		t.Fatalf("GetOrRegister should return the existing view (err=%v)", err)
	}
	for _, bad := range []Options{
		{Deps: []string{"KV"}, Build: opts.Build},
		{Name: "x", Build: opts.Build},
		{Name: "x", Deps: []string{"KV"}},
	} {
		if _, err := reg.Register(bad); err == nil {
			t.Fatalf("Register(%+v) should fail", bad)
		}
	}
	if got := len(reg.Views()); got != 1 {
		t.Fatalf("Views() len = %d, want 1", got)
	}
	if s := reg.Stats(); s.Views != 1 {
		t.Fatalf("Stats().Views = %d, want 1", s.Views)
	}
}

// TestCloseDrains: Close must wait for an in-flight background refresh
// and leave the registry serving (degraded to blocking refreshes).
func TestCloseDrains(t *testing.T) {
	db, tbl := kvDB(t, 4)
	reg := NewRegistry(db, 2)
	reg.Start()
	building := make(chan struct{}, 8)
	v, err := reg.Register(Options{
		Name: "sum", Deps: []string{"KV"}, Mode: Async, MaxStale: time.Minute,
		Build: func() (any, error) {
			building <- struct{}{}
			time.Sleep(20 * time.Millisecond)
			var sum int64
			tbl.Scan(func(_ int, r relation.Row) bool { sum += r[1].(int64); return true })
			return sum, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Get(); err != nil {
		t.Fatal(err)
	}
	<-building // the cold build's signal
	tbl.MustInsert(relation.Row{int64(5), int64(50)})
	if _, serve, _ := v.Get(); serve.Kind != ServeStale {
		t.Fatalf("expected a stale serve kicking a background refresh, got %v", serve.Kind)
	}
	<-building // the worker started the background refresh
	reg.Close() // must block until that build completes
	val, _, err := v.Get()
	if err != nil {
		t.Fatal(err)
	}
	if val.(int64) != 150 {
		t.Fatalf("post-Close read = %v, want 150 (refresh completed before Close returned)", val)
	}
	reg.Close() // idempotent
}

// TestAsyncDedup: a storm of stale reads enqueues at most one refresh
// at a time.
func TestAsyncDedup(t *testing.T) {
	db, tbl := kvDB(t, 4)
	reg := NewRegistry(db, 1)
	reg.Start()
	defer reg.Close()
	var builds atomic.Int64
	v, err := reg.Register(Options{
		Name: "sum", Deps: []string{"KV"}, Mode: Async, MaxStale: time.Minute,
		Build: func() (any, error) {
			builds.Add(1)
			time.Sleep(10 * time.Millisecond)
			return int64(0), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Get(); err != nil {
		t.Fatal(err)
	}
	tbl.MustInsert(relation.Row{int64(5), int64(50)})
	for i := 0; i < 50; i++ {
		// Every read inside the bound serves immediately — fresh once the
		// refresh lands, stale before — and NEVER blocks on a build.
		if _, serve, _ := v.Get(); serve.Kind == ServeBuilt {
			t.Fatalf("read %d blocked on a build inside the staleness bound", i)
		}
	}
	time.Sleep(50 * time.Millisecond)
	// 1 cold build + a handful of deduplicated background refreshes —
	// far fewer than the 50 stale reads.
	if b := builds.Load(); b > 5 {
		t.Fatalf("50 stale reads caused %d builds, want deduplicated refreshes", b)
	}
}

func TestModeAndServeStrings(t *testing.T) {
	if Sync.String() != "sync" || Async.String() != "async" {
		t.Fatal("mode strings")
	}
}

func TestPeekDoesNotBuild(t *testing.T) {
	db, tbl := kvDB(t, 2)
	reg := NewRegistry(db, 1)
	var builds atomic.Int64
	v, err := reg.Register(Options{Name: "sum", Deps: []string{"KV"}, Build: sumKV(tbl, &builds)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := v.Peek(); ok || builds.Load() != 0 {
		t.Fatal("Peek on a cold view must not build")
	}
	if _, _, err := v.Get(); err != nil {
		t.Fatal(err)
	}
	if val, serve, ok := v.Peek(); !ok || val.(int64) != 30 || serve.Kind != ServeFresh {
		t.Fatalf("warm Peek = %v %v %v", val, serve, ok)
	}
	tbl.MustInsert(relation.Row{int64(3), int64(30)})
	if _, serve, ok := v.Peek(); !ok || serve.Kind != ServeStale {
		t.Fatalf("stale Peek kind = %v, want stale without building", serve.Kind)
	}
	if builds.Load() != 1 {
		t.Fatalf("Peek triggered builds: %d", builds.Load())
	}
}

func TestStatsFields(t *testing.T) {
	db, tbl := kvDB(t, 2)
	reg := NewRegistry(db, 1)
	v, err := reg.Register(Options{
		Name: "sum", Deps: []string{"KV"}, Mode: Async, MaxStale: time.Second,
		Build: sumKV(tbl, new(atomic.Int64)),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.Name != "sum" || st.Mode != "async" || st.MaxStale != time.Second {
		t.Fatalf("stats identity = %+v", st)
	}
	if fmt.Sprint(st.Deps) != "[KV]" {
		t.Fatalf("deps = %v", st.Deps)
	}
	if _, _, err := v.Get(); err != nil {
		t.Fatal(err)
	}
	if st = v.Stats(); !st.HasSnapshot || st.Age < 0 {
		t.Fatalf("post-build stats = %+v", st)
	}
	v.Invalidate()
	if st = v.Stats(); st.HasSnapshot || st.Invalidations != 1 {
		t.Fatalf("post-Invalidate stats = %+v", st)
	}
}
