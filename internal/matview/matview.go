package matview

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"courserank/internal/relation"
)

// Mode selects how a view meets a read that finds its snapshot stale.
type Mode int

const (
	// Sync views refresh on read: a stale read blocks while the view
	// rebuilds (single-flighted, so concurrent cold reads build once).
	Sync Mode = iota
	// Async views serve the previous snapshot immediately while a
	// background worker refreshes behind the read, as long as the
	// snapshot's age is inside the view's staleness bound; beyond the
	// bound — or after a schema change — they block like Sync.
	Async
)

// String names the mode for listings and JSON.
func (m Mode) String() string {
	if m == Async {
		return "async"
	}
	return "sync"
}

// ServeKind says how one read was satisfied.
type ServeKind int

const (
	// ServeFresh: the snapshot's fingerprint matched every dependency.
	ServeFresh ServeKind = iota
	// ServeStale: an async view served its previous snapshot inside the
	// staleness bound while a refresh ran behind the read.
	ServeStale
	// ServeBuilt: the read blocked on a (single-flighted) rebuild.
	ServeBuilt
)

// Serve describes how a Get was answered: the path taken, the age of
// the snapshot it returned (time since its build; zero for a snapshot
// built by this read) and — for stale serves — how long the snapshot
// has been KNOWN stale, the quantity the staleness bound caps.
type Serve struct {
	Kind     ServeKind
	Age      time.Duration
	StaleFor time.Duration
}

// Options declares one materialized view.
type Options struct {
	// Name keys the view in the registry; required and unique.
	Name string
	// Deps are the base-table names whose mutations stale the view.
	Deps []string
	// Mode is Sync (refresh-on-read) or Async (stale-bounded serving).
	Mode Mode
	// MaxStale bounds an Async view's serving staleness: once a read
	// observes the snapshot stale, later reads keep serving it for at
	// most this long while refreshes run behind them — beyond it (the
	// refresher is lagging or dead) reads block like Sync. Zero makes
	// Async behave like Sync. Ignored for Sync views.
	MaxStale time.Duration
	// Build computes one snapshot value. The returned value is shared
	// between all readers of the snapshot and MUST be treated as
	// immutable by everyone — builds return fresh values, never mutate
	// a previous one.
	Build func() (any, error)
}

// tableFP pins one dependency at build time: the table pointer (identity
// across DROP/CREATE), its schema epoch and its mutation version — the
// same (SchemaEpoch, Version) machinery the plan cache fingerprints
// with, except views key on the full mutation counter because they bake
// in data, not access paths. A nil tbl records that the table did not
// exist at build time.
type tableFP struct {
	name    string
	tbl     *relation.Table
	epoch   uint64
	version uint64
}

// snapshot is one immutable build result. Readers obtain the whole
// snapshot through an atomic pointer, so a reader never observes a
// half-replaced view — refreshes publish a new snapshot or none.
// staleAt is the one mutable cell: a CAS-once observation marker
// recording when a read first found the snapshot stale, the clock the
// staleness bound runs against. (A version mismatch never un-stales —
// versions are monotonic — so the marker is set at most once.)
type snapshot struct {
	value    any
	fps      []tableFP
	builtAt  time.Time
	buildDur time.Duration
	staleAt  atomic.Int64 // unix nanos of the first stale observation; 0 = none
}

// staleFor returns how long the snapshot has been known stale as of
// now, marking the first observation.
func (s *snapshot) staleFor(now time.Time) time.Duration {
	sa := s.staleAt.Load()
	if sa == 0 {
		s.staleAt.CompareAndSwap(0, now.UnixNano())
		sa = s.staleAt.Load()
	}
	return now.Sub(time.Unix(0, sa))
}

// fresh reports whether every dependency still matches its build-time
// fingerprint exactly. A dependency absent at build time matches while
// it stays absent — the snapshot legitimately reflects "no table".
func (s *snapshot) fresh(db *relation.DB) bool {
	for _, fp := range s.fps {
		t, ok := db.Table(fp.name)
		if !ok {
			if fp.tbl == nil {
				continue // absent at build, still absent
			}
			return false
		}
		if t != fp.tbl {
			return false
		}
		epoch, version := t.ViewFingerprint()
		if epoch != fp.epoch || version != fp.version {
			return false
		}
	}
	return true
}

// sameShape reports whether every dependency is still the same table at
// the same schema epoch — the precondition for serving the snapshot
// STALE: row DML inside the staleness bound is tolerated, but a dropped,
// replaced or re-shaped table must never serve stale-schema rows.
func (s *snapshot) sameShape(db *relation.DB) bool {
	for _, fp := range s.fps {
		t, ok := db.Table(fp.name)
		if !ok {
			if fp.tbl == nil {
				continue
			}
			return false
		}
		if t != fp.tbl {
			return false
		}
		epoch, _ := t.ViewFingerprint()
		if epoch != fp.epoch {
			return false
		}
	}
	return true
}

// call is one in-flight build that late readers join instead of
// building again — the single-flight mechanism.
type call struct {
	done chan struct{}
	snap *snapshot
	err  error
}

// View is one registered materialized view. All methods are safe for
// concurrent use.
type View struct {
	reg      *Registry
	name     string
	deps     []string
	mode     Mode
	maxStale time.Duration
	build    func() (any, error)

	snap   atomic.Pointer[snapshot]
	mu     sync.Mutex // guards inflight
	flight *call
	queued atomic.Bool // a background refresh is enqueued or running

	hits          atomic.Uint64
	staleHits     atomic.Uint64
	misses        atomic.Uint64
	refreshes     atomic.Uint64
	invalidations atomic.Uint64
	errors        atomic.Uint64
}

// Name returns the view's registry key.
func (v *View) Name() string { return v.name }

// Mode returns the view's serving mode.
func (v *View) Mode() Mode { return v.mode }

// MaxStale returns the async staleness bound (zero for sync views).
func (v *View) MaxStale() time.Duration { return v.maxStale }

// Deps returns the dependency table names.
func (v *View) Deps() []string { return append([]string(nil), v.deps...) }

// fingerprint captures every dependency's current (pointer, epoch,
// version). It is taken BEFORE the build reads any table, so a mutation
// racing the build makes the snapshot immediately stale — conservative,
// never incorrect.
func (v *View) fingerprint() []tableFP {
	fps := make([]tableFP, len(v.deps))
	for i, name := range v.deps {
		fps[i] = tableFP{name: name}
		if t, ok := v.reg.db.Table(name); ok {
			fps[i].tbl = t
			fps[i].epoch, fps[i].version = t.ViewFingerprint()
		}
	}
	return fps
}

// rebuild runs (or joins) the single-flight build and returns its
// snapshot. Readers arriving while a build is in flight wait for that
// build instead of starting their own.
//
// When strict is set (blocking reads), a JOINED build's result is
// revalidated: the flight may have started before the write or DDL
// that sent this reader here, so a result that is already stale — or
// worse, pre-DDL — triggers one more round instead of being returned
// as ServeBuilt. The second round is always acceptable: any flight
// encountered then was created after the first one cleared, i.e. after
// this read began, so its fingerprint covers everything the reader has
// seen. Background refreshes pass strict=false — joining whatever
// refresh is running is exactly the deduplication they want.
func (v *View) rebuild(strict bool) (*snapshot, error) {
	joined := false
	for {
		v.mu.Lock()
		if c := v.flight; c != nil {
			v.mu.Unlock()
			<-c.done
			if c.err != nil {
				return nil, c.err
			}
			if !strict || joined || (c.snap != nil && c.snap.fresh(v.reg.db)) {
				return c.snap, nil
			}
			joined = true
			continue
		}
		c := &call{done: make(chan struct{})}
		v.flight = c
		v.mu.Unlock()

		fps := v.fingerprint()
		t0 := time.Now()
		val, err := v.build()
		if err != nil {
			v.errors.Add(1)
			c.err = fmt.Errorf("matview: building %q: %w", v.name, err)
		} else {
			c.snap = &snapshot{value: val, fps: fps, builtAt: time.Now(), buildDur: time.Since(t0)}
			v.snap.Store(c.snap)
			v.refreshes.Add(1)
		}

		v.mu.Lock()
		v.flight = nil
		v.mu.Unlock()
		close(c.done)
		return c.snap, c.err
	}
}

// Get serves the view: a fresh snapshot immediately (hit), a stale one
// inside an async view's bound while a background refresh runs
// (stale-hit), or the result of a blocking single-flighted rebuild
// (miss). The returned value is shared and immutable — callers must not
// modify it.
func (v *View) Get() (any, Serve, error) {
	if s := v.snap.Load(); s != nil {
		if s.fresh(v.reg.db) {
			v.hits.Add(1)
			return s.value, Serve{Kind: ServeFresh, Age: time.Since(s.builtAt)}, nil
		}
		if !s.sameShape(v.reg.db) {
			// Schema epoch moved or the table was replaced: the snapshot
			// may hold stale-SCHEMA rows, which must never be served.
			// Drop it so even a racing reader cannot pick it up; the CAS
			// guard counts one invalidation per event, not per reader.
			if v.snap.CompareAndSwap(s, nil) {
				v.invalidations.Add(1)
			}
		} else if v.mode == Async && v.maxStale > 0 {
			// The bound caps KNOWN staleness: the clock starts when a read
			// first observes the snapshot stale (a write nobody reads after
			// serves nobody stale data), so a long-fresh snapshot that just
			// went stale serves instantly while the refresh it triggered
			// runs — and keeps serving only while refreshes keep up.
			now := time.Now()
			if staleFor := s.staleFor(now); staleFor <= v.maxStale {
				v.staleHits.Add(1)
				v.enqueueRefresh()
				return s.value, Serve{Kind: ServeStale, Age: now.Sub(s.builtAt), StaleFor: staleFor}, nil
			}
		}
	}
	v.misses.Add(1)
	s, err := v.rebuild(true)
	if err != nil {
		return nil, Serve{}, err
	}
	return s.value, Serve{Kind: ServeBuilt, Age: time.Since(s.builtAt)}, nil
}

// Peek returns the current snapshot without serving it: no build is
// triggered and no counter moves. ok is false when the view has never
// been built (or was invalidated by a schema change). Explain-style
// introspection uses it to annotate plans without perturbing stats.
func (v *View) Peek() (value any, serve Serve, ok bool) {
	s := v.snap.Load()
	if s == nil {
		return nil, Serve{}, false
	}
	kind := ServeStale
	if s.fresh(v.reg.db) {
		kind = ServeFresh
	}
	return s.value, Serve{Kind: kind, Age: time.Since(s.builtAt)}, true
}

// Refresh forces a (single-flighted) rebuild regardless of freshness
// and blocks until it completes.
func (v *View) Refresh() error {
	_, err := v.rebuild(false)
	return err
}

// Invalidate drops the current snapshot, so the next read rebuilds.
// Registered as a manual invalidation in the counters.
func (v *View) Invalidate() {
	if v.snap.Swap(nil) != nil {
		v.invalidations.Add(1)
	}
}

// enqueueRefresh schedules one background rebuild, deduplicating: while
// a refresh is queued or running, further stale reads do not enqueue
// again. With no started worker pool (or a closed registry) this is a
// no-op — correctness is unaffected because reads beyond the staleness
// bound block and rebuild synchronously.
func (v *View) enqueueRefresh() {
	r := v.reg
	if !r.started.Load() || r.closed.Load() {
		return
	}
	if !v.queued.CompareAndSwap(false, true) {
		return
	}
	select {
	case r.queue <- v:
	default:
		// Queue full: drop the request; a later read re-triggers.
		v.queued.Store(false)
	}
}

// ViewStats is a point-in-time snapshot of one view's counters and
// snapshot state.
type ViewStats struct {
	Name          string        `json:"name"`
	Mode          string        `json:"mode"`
	MaxStale      time.Duration `json:"maxStale"`
	Deps          []string      `json:"deps"`
	Hits          uint64        `json:"hits"`
	StaleHits     uint64        `json:"staleHits"`
	Misses        uint64        `json:"misses"`
	Refreshes     uint64        `json:"refreshes"`
	Invalidations uint64        `json:"invalidations"`
	Errors        uint64        `json:"errors"`
	HasSnapshot   bool          `json:"hasSnapshot"`
	Age           time.Duration `json:"age"`       // of the current snapshot; 0 when none
	LastBuild     time.Duration `json:"lastBuild"` // duration of the last completed build
}

// Stats snapshots the view's counters.
func (v *View) Stats() ViewStats {
	st := ViewStats{
		Name:          v.name,
		Mode:          v.mode.String(),
		MaxStale:      v.maxStale,
		Deps:          v.Deps(),
		Hits:          v.hits.Load(),
		StaleHits:     v.staleHits.Load(),
		Misses:        v.misses.Load(),
		Refreshes:     v.refreshes.Load(),
		Invalidations: v.invalidations.Load(),
		Errors:        v.errors.Load(),
	}
	if s := v.snap.Load(); s != nil {
		st.HasSnapshot = true
		st.Age = time.Since(s.builtAt)
		st.LastBuild = s.buildDur
	}
	return st
}

// Stats aggregates counters across every view in a registry.
type Stats struct {
	Views         int    `json:"views"`
	Hits          uint64 `json:"hits"`
	StaleHits     uint64 `json:"staleHits"`
	Misses        uint64 `json:"misses"`
	Refreshes     uint64 `json:"refreshes"`
	Invalidations uint64 `json:"invalidations"`
	Errors        uint64 `json:"errors"`
}

// Registry is the catalog of materialized views over one database plus
// the background refresher pool serving its async views. The zero
// lifecycle is Start → serve → Close; an unstarted registry still
// serves every view correctly (async views simply degrade to blocking
// refreshes once past their staleness bound).
type Registry struct {
	db      *relation.DB
	workers int
	queue   chan *View
	stop    chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool
	closed  atomic.Bool

	mu    sync.RWMutex
	views map[string]*View
}

// NewRegistry builds a registry over db with the given background
// refresher pool size (minimum 1, applied at Start).
func NewRegistry(db *relation.DB, workers int) *Registry {
	if workers < 1 {
		workers = 1
	}
	return &Registry{
		db:      db,
		workers: workers,
		queue:   make(chan *View, 16*workers),
		stop:    make(chan struct{}),
		views:   make(map[string]*View),
	}
}

// DB returns the database the registry's views are defined over.
func (r *Registry) DB() *relation.DB { return r.db }

// Register declares a view. Duplicate names are rejected; use
// GetOrRegister for idempotent registration.
func (r *Registry) Register(o Options) (*View, error) {
	return r.register(o, false)
}

// GetOrRegister returns the existing view under o.Name, or registers o.
// Lazy wiring (FlexRecs Materialize steps) uses it so the first request
// to a workflow shape installs the view and later requests share it.
// Reuse requires the serving options to agree: a name registered sync
// cannot be silently re-fetched as async (or with different deps or
// bound) — that would hand one of the two callers the wrong staleness
// contract, so the mismatch is an error instead.
func (r *Registry) GetOrRegister(o Options) (*View, error) {
	return r.register(o, true)
}

func (r *Registry) register(o Options, reuse bool) (*View, error) {
	if o.Name == "" {
		return nil, fmt.Errorf("matview: view needs a name")
	}
	if o.Build == nil {
		return nil, fmt.Errorf("matview: view %q needs a Build function", o.Name)
	}
	if len(o.Deps) == 0 {
		return nil, fmt.Errorf("matview: view %q needs at least one dependency table", o.Name)
	}
	// Warm lookups take only the read lock: GetOrRegister sits on every
	// serve of lazily-wired views, so it must not serialize readers on
	// the registry's write lock once the view exists.
	if reuse {
		r.mu.RLock()
		v := r.views[o.Name]
		r.mu.RUnlock()
		if v != nil {
			return reusable(v, o)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, dup := r.views[o.Name]; dup {
		if !reuse {
			return nil, fmt.Errorf("matview: view %q already registered", o.Name)
		}
		return reusable(v, o)
	}
	v := &View{
		reg:      r,
		name:     o.Name,
		deps:     append([]string(nil), o.Deps...),
		mode:     o.Mode,
		maxStale: o.MaxStale,
		build:    o.Build,
	}
	r.views[o.Name] = v
	return v, nil
}

// reusable enforces the reuse contract: the existing view's serving
// options must agree with the requested ones.
func reusable(v *View, o Options) (*View, error) {
	if v.mode != o.Mode || v.maxStale != o.MaxStale || !slices.Equal(v.deps, o.Deps) {
		return nil, fmt.Errorf("matview: view %q already registered with different serving options", o.Name)
	}
	return v, nil
}

// View looks up a view by name.
func (r *Registry) View(name string) (*View, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.views[name]
	return v, ok
}

// Views returns every registered view sorted by name.
func (r *Registry) Views() []*View {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*View, 0, len(r.views))
	for _, v := range r.views {
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// Stats aggregates counters across all views.
func (r *Registry) Stats() Stats {
	var s Stats
	for _, v := range r.Views() {
		vs := v.Stats()
		s.Views++
		s.Hits += vs.Hits
		s.StaleHits += vs.StaleHits
		s.Misses += vs.Misses
		s.Refreshes += vs.Refreshes
		s.Invalidations += vs.Invalidations
		s.Errors += vs.Errors
	}
	return s
}

// Start launches the background refresher pool. Idempotent.
func (r *Registry) Start() {
	if r.closed.Load() || !r.started.CompareAndSwap(false, true) {
		return
	}
	for i := 0; i < r.workers; i++ {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for {
				select {
				case <-r.stop:
					return
				case v := <-r.queue:
					// Clear the dedup flag BEFORE building so DML landing
					// during the build can re-enqueue a follow-up refresh.
					v.queued.Store(false)
					_, _ = v.rebuild(false)
				}
			}
		}()
	}
}

// Close stops the refresher pool and waits for in-flight builds to
// drain. Views keep serving afterwards (async ones degrade to blocking
// refreshes). Idempotent.
func (r *Registry) Close() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	close(r.stop)
	r.wg.Wait()
	// Drop queued-but-unprocessed requests so their dedup flags reset.
	for {
		select {
		case v := <-r.queue:
			v.queued.Store(false)
		default:
			return
		}
	}
}
