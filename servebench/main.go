// Command servebench is CourseRank's end-to-end serving benchmark. In
// one process it generates the datagen.Small deployment, serves it over
// HTTP on a loopback listener, drives one named workload at it from a
// seeded request generator, checks every response, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage:
//
//	servebench -workload browse|discover|review -seed N -seconds S -trace 0|1 [-state DIR]
//
// With -trace 0 a run reports the end-to-end metrics: set-up time
// (median of several set-ups), an open loop of Poisson arrivals at the
// workload's fixed rate, then a closed loop of one client per CPU. Set-up
// time and closed-loop throughput are in reference seconds, wall time
// scaled by the machine's speed at the moment (reference.go). With
// -trace 1 it reports the per-layer metrics: the same two phases,
// shorter, bracketed by counter snapshots, then a direct replay of the
// request stream with a span around every call into a layer. README.md
// lists every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"courserank/internal/core"
	"courserank/internal/matview"
)

func main() {
	// A run that has not finished by now is stuck; fail it rather
	// than hang.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "servebench: run exceeded %v; stacks follow\n", watchdog)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// watchdog bounds one run's wall time.
const watchdog = 170 * time.Second

// dumpStacks writes every goroutine's stack to path, for the diagnosis
// of a stuck server.
func dumpStacks(path string, stderr io.Writer) {
	f, err := os.Create(path)
	if err == nil {
		err = pprof.Lookup("goroutine").WriteTo(f, 2)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "servebench: writing stacks: %v\n", err)
		return
	}
	fmt.Fprintf(stderr, "servebench: goroutine stacks written to %s\n", path)
}

type options struct {
	workload Workload
	seed     int64
	seconds  int
	trace    bool
	state    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: browse, discover, review")
	seed := fs.Int64("seed", 1, "workload seed; the same seed sends the same requests")
	seconds := fs.Int("seconds", 30, "seconds of measured traffic")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	state := fs.String("state", ".bench_build", "directory for durable sites and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := Workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "servebench: need -workload browse|discover|review, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	res, err := bench(options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, state: *state}, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

// Phase lengths. Warm-up fills caches and builds lazy state before any
// timing; it is not part of set-up time.
const (
	warmup       = 500 * time.Millisecond
	e2eSetups    = 5                      // set-ups per end-to-end run; setup_s is their median
	phaseChunks  = 5                      // open- and closed-loop chunks that alternate
	lateLimitMs  = 50.0                   // a run whose dispatcher ran later than this at p99 is invalid
	quiesce      = 300 * time.Millisecond // several feed builds' time
	maxFailShown = 5
)

// metric is one printed figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // base of a ratio, or sample count of a percentile
}

// result is a finished run.
type result struct {
	header    string
	correct   bool
	attempted int
	failed    int
	failures  []string
	line      map[string]bool // names of the JSON line's metrics
	final     []metric        // the metrics of the JSON line
	extra     []metric        // reported above it
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	if len(r.failures) < maxFailShown {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// tally counts outcomes as attempted and their errors as failed.
func (r *result) tally(outs []outcome) {
	r.attempted += len(outs)
	for _, o := range outs {
		if o.err != nil {
			r.failed++
			r.fail("%s: %v", o.class, o.err)
		}
	}
}

// bench runs one workload and gathers its metrics.
func bench(opt options, stderr io.Writer) (*result, error) {
	w := opt.workload
	conns := runtime.NumCPU()
	total := time.Duration(opt.seconds) * time.Second
	if err := os.MkdirAll(opt.state, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(opt.state, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	res := &result{correct: true, line: endToEnd, header: fmt.Sprintf(
		"servebench workload=%s seed=%d seconds=%d trace=%v conns=%d rate=%g/s durable=%v",
		w.Name, opt.seed, opt.seconds, opt.trace, conns, w.Rate, w.Durable)}
	if w.Durable {
		res.header += " fsync=sync"
	}
	if opt.trace {
		res.line = perLayer
	}

	ref, err := startReference(conns)
	if err != nil {
		return nil, err
	}
	defer ref.close()

	// Set-up: build, serve and read the universe. End-to-end runs set up
	// several times and keep the last deployment. The reference speed is
	// read before the first set-up and after each one.
	setups := e2eSetups
	if opt.trace {
		setups = 1
	}
	var d *deployment
	var setupTimes, setupRef []float64
	speed, err := ref.speed(conns)
	if err != nil {
		return nil, err
	}
	for i := 0; i < setups; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(d.dir)
		}
		runtime.GC()
		dir := ""
		if w.Durable {
			dir = filepath.Join(runDir, fmt.Sprintf("site-%d", i))
		}
		t0 := time.Now()
		if d, err = deploy(w.Durable, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wall := time.Since(t0).Seconds()
		after, err := ref.speed(conns)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, wall)
		setupRef = append(setupRef, wall*(speed+after)/2)
		speed = after
	}
	closed := false
	defer func() {
		if !closed {
			d.close()
		}
	}()

	gen := NewGenerator(d.u, w, opt.seed)
	c := newClient(d.base, d.u, conns)
	defer c.close()
	var acks []*ack
	keepAcks := func(outs []outcome) {
		for _, o := range outs {
			if o.ack != nil {
				acks = append(acks, o.ack)
			}
		}
	}

	if err := d.warmViews(); err != nil {
		return nil, err
	}
	warm, _ := closedLoop(c, gen, warmup, conns)
	res.tally(warm)
	keepAcks(warm)

	// The closed loop's reference-speed readings take about a tenth of
	// its time.
	openDur, closedDur := total*40/100, total*55/100
	if opt.trace {
		openDur, closedDur = total/4, total/4
	}
	// The phases alternate in chunks that span the whole run, so both
	// sample the shared machine's slow swings alike. The open-loop
	// schedules are drawn before the window opens.
	scheds := make([]schedule, phaseChunks)
	for i := range scheds {
		scheds[i] = poissonSchedule(gen, w.Rate, openDur/phaseChunks, opt.seed^0x5eed+int64(i))
	}
	before := snapshot(d.site)
	var open, shut []outcome
	var late []float64
	var elapsed, refElapsed time.Duration
	for _, sched := range scheds {
		o, l := openLoop(c, sched, conns)
		sh, el, rel, err := timedClosedLoop(c, gen, ref, closedDur/phaseChunks, conns)
		if err != nil {
			return nil, err
		}
		open, late, shut = append(open, o...), append(late, l...), append(shut, sh...)
		elapsed, refElapsed = elapsed+el, refElapsed+rel
	}
	after := snapshot(d.site)
	scheds = nil // the request lists are the generator's, not the site's heap
	res.tally(open)
	res.tally(shut)
	keepAcks(open)
	keepAcks(shut)

	if c.stuck.Err() != nil {
		// A request that never came back leaves the site unable to
		// close; report what was measured and leave the rest undone.
		closed = true
		res.fail("server stopped answering: a request took over %v", requestTimeout)
		dumpStacks(filepath.Join(opt.state, "stacks-"+w.Name+".txt"), stderr)
		return res, nil
	}
	lateSum := Summarize(late)
	if lateSum.P99 > lateLimitMs {
		res.fail("invalid run: the generator sent requests %.2f ms behind schedule at p99 (limit %g ms)", lateSum.P99, lateLimitMs)
	}
	throughput, wallThroughput := throughputOf(shut, refElapsed), throughputOf(shut, elapsed)

	var lat, writeLat []float64
	for _, o := range open {
		lat = append(lat, o.latency())
		if o.class.Write() {
			writeLat = append(writeLat, o.latency())
		}
	}
	p50, p99, windows := Windowed(lat)
	nOpen := len(lat)
	var closedLat []float64
	for _, o := range shut {
		closedLat = append(closedLat, o.latency())
	}
	cp50, cp99, closedWindows := Windowed(closedLat)
	if opt.trace {
		res.layerMetrics(d, open, shut, before, after)
	}
	open, shut, warm, lat = nil, nil, nil, nil
	// Background work the traffic set off, such as a matview refresh,
	// finishes before the heap is read.
	time.Sleep(quiesce)
	heap := liveHeapMiB()

	writeP50, writeP99, writeWindows := Windowed(writeLat)

	if opt.trace {
		tr := NewTracer()
		rr := newReplayer(d.site, d.u, tr).replay(gen, total/2)
		res.attempted += rr.n[0] + rr.n[1]
		res.failed += len(rr.failures)
		for _, err := range rr.failures {
			res.fail("replay: %v", err)
		}
		acks = append(acks, rr.acks...)
		res.spanMetrics(tr.Spans, rr)
		path := filepath.Join(opt.state, "spans-"+w.Name+".jsonl")
		if err := WriteSpans(path, tr.Spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "servebench: %d spans written to %s\n", len(tr.Spans), path)
	}

	closed = true
	if err := d.close(); err != nil {
		return nil, err
	}
	if w.Durable {
		missing, err := verifyDurable(d.dir, acks)
		if err != nil {
			return nil, err
		}
		res.attempted += len(acks)
		res.failed += len(missing)
		for _, m := range missing {
			res.fail("reopen: %s", m)
		}
	}

	success := 1 - ratio(float64(res.failed), float64(res.attempted))
	for _, m := range []metric{
		{"setup_s", Median(setupRef), "s", fmt.Sprintf("reference seconds, median of %d set-ups", len(setupRef))},
		{"setup_wall_s", Median(setupTimes), "s", fmt.Sprintf("wall seconds, median of %d set-ups", len(setupTimes))},
		{"heap_mib", heap, "MiB", "live heap after the run and a forced GC"},
		{"throughput_rps", throughput, "1/s", fmt.Sprintf("closed loop, %d clients, %d successes in %.1f reference seconds", conns, int(throughput*refElapsed.Seconds()+0.5), refElapsed.Seconds())},
		{"throughput_wall_rps", wallThroughput, "1/s", fmt.Sprintf("the same successes in %.1f wall seconds", elapsed.Seconds())},
		{"reference_speed", refElapsed.Seconds() / elapsed.Seconds(), "ratio", fmt.Sprintf("reference rate / %g req/s over the closed loop", refNominalRate)},
		{"closed_p50_ms", cp50, "ms", fmt.Sprintf("closed loop, n=%d, median of %d windows", len(closedLat), closedWindows)},
		{"closed_p99_ms", cp99, "ms", fmt.Sprintf("closed loop, n=%d, median of %d windows", len(closedLat), closedWindows)},
		{"p50_ms", p50, "ms", fmt.Sprintf("open loop from due time, n=%d, median of %d windows", nOpen, windows)},
		{"p99_ms", p99, "ms", fmt.Sprintf("open loop from due time, n=%d, median of %d windows", nOpen, windows)},
		{"success_frac", success, "ratio", fmt.Sprintf("1 - %d failed / %d attempted", res.failed, res.attempted)},
		{"loadgen.late_p99_ms", lateSum.P99, "ms", fmt.Sprintf("dispatch lateness, n=%d", lateSum.N)},
		{"error_frac", 1 - success, "ratio", fmt.Sprintf("%d failed / %d attempted", res.failed, res.attempted)},
	} {
		res.add(m)
	}
	if len(writeLat) > 0 {
		res.add(metric{"write_p50_ms", writeP50, "ms", fmt.Sprintf("open-loop writes, n=%d, median of %d windows", len(writeLat), writeWindows)})
		res.add(metric{"write_p99_ms", writeP99, "ms", fmt.Sprintf("open-loop writes, n=%d, median of %d windows", len(writeLat), writeWindows)})
	}
	return res, nil
}

// liveHeapMiB forces a collection and reads the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// endToEnd and perLayer name the metrics of the JSON line with -trace 0
// and -trace 1, in step with BENCHMARK.json (a test compares them).
// The latency percentiles are printed but not on the line. On a shared
// virtual machine the host's speed drifts by a fifth over minutes and
// every timing moves with it; the open loop's p50 spread by half its
// median in a busy hour, and the closed loop's p50 and p99, which also
// move with the mix's share of slow requests, spread past the 0.25
// bound where the whole closed phase's throughput stayed inside it.
// A traced run also prints figures that exist only where a workload
// uses the layer, such as per-class latencies, span times and the
// write-path counters that read 0 on the read-only workloads; those
// stay above the JSON line.
var (
	endToEnd = names("setup_s", "heap_mib", "throughput_rps", "success_frac")
	perLayer = names(
		"loadgen.late_p99_ms", "error_frac", "server.transport_mean_ms",
		"sqlmini.stmts_per_req", "sqlmini.busy_ms_per_req", "sqlmini.rows_per_stmt",
		"sqlmini.plancache.hit_ratio",
		"flexrecs.compile.hit_ratio", "flexrecs.mat.hit_ratio", "search.hits_per_query",
		"matview.hit_ratio", "matview.last_build_ms",
		"obs.fingerprints",
		"go.allocs_per_req", "go.alloc_bytes_per_req", "go.gc_cpu_frac", "go.gc_cycles",
		"community.session.p50_us", "json.encode.p50_us",
		"trace.overhead_frac", "trace.spans",
	)
)

func names(list ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range list {
		m[n] = true
	}
	return m
}

// add files a metric under the JSON line when the run's mode lists it,
// and above it otherwise.
func (r *result) add(m metric) {
	if r.line[m.name] {
		r.final = append(r.final, m)
	} else {
		r.extra = append(r.extra, m)
	}
}

// layerMetrics derives the per-layer metrics of the HTTP window: client-
// side per-class latencies, transport time, and the counter deltas.
func (r *result) layerMetrics(d *deployment, open, shut []outcome, before, after counters) {
	byClass := map[Class][]float64{}
	var service []float64
	var hits []float64
	dl := delta{before: before, after: after}
	for _, outs := range [][]outcome{open, shut} {
		for _, o := range outs {
			if !after.httpKeys[o.fp] && o.err != errSkipped {
				dl.unheld++
			}
			if o.err != nil {
				continue
			}
			dl.requests++
			if o.class.Write() {
				dl.writes++
			}
			byClass[o.class] = append(byClass[o.class], o.latency())
			if after.httpKeys[o.fp] {
				service = append(service, o.service())
			}
			if o.class == ClassSearch {
				hits = append(hits, float64(o.hits))
			}
		}
	}
	if n := dl.sqlOverflow(); n > 0 {
		r.fail("invalid run: %d statement records went past the collector's fingerprint cap, so the sqlmini figures undercount", n)
	}
	for _, cl := range Classes {
		if xs := byClass[cl]; len(xs) > 0 {
			s := Summarize(xs)
			r.add(metric{"server." + string(cl) + ".p50_ms", s.P50, "ms", fmt.Sprintf("client side, n=%d", s.N)})
			r.add(metric{"server." + string(cl) + ".p99_ms", s.P99, "ms", fmt.Sprintf("client side, n=%d, %d beyond", s.N, s.Beyond99)})
		}
	}
	var handlerMean float64
	for _, m := range dl.metrics() {
		if m.name == "server.handler_mean_ms" {
			handlerMean = m.value
		}
		r.add(m)
	}
	// Both means cover the same requests: those whose fingerprint the
	// collector holds, since every request under a held fingerprint is
	// recorded there and the rest went to the overflow key.
	svc := Summarize(service)
	r.add(metric{"server.transport_mean_ms", svc.Mean - handlerMean, "ms",
		fmt.Sprintf("client mean from send %.4f ms - handler mean %.4f ms over %d requests with a held fingerprint", svc.Mean, handlerMean, svc.N)})
	routes := dl.routeMeans()
	for _, p := range sortedKeys(routes) {
		r.add(metric{"server.route " + p, routes[p], "ms", "handler time / requests"})
	}
	hitsMean := 0.0
	if len(hits) > 0 {
		hitsMean = Summarize(hits).Mean
	}
	r.add(metric{"search.hits_per_query", hitsMean, "count", fmt.Sprintf("results / searches, n=%d", len(hits))})
	r.add(metric{"obs.fingerprints", float64(fingerprints(d.site)), "count", "distinct collector fingerprints after the window"})
	r.add(metric{"matview.last_build_ms", feedLastBuildMs(d.site), "ms", "last build of " + core.FeedViewName})
}

// feedLastBuildMs is the duration of the feed view's last build.
func feedLastBuildMs(site *core.Site) float64 {
	var v *matview.View
	var ok bool
	if v, ok = site.Views.View(core.FeedViewName); !ok {
		return 0
	}
	return float64(v.Stats().LastBuild) / 1e6
}

// msSpans are the spans reported in milliseconds; the rest are in
// microseconds.
var msSpans = map[string]bool{"flexrecs.run": true, "search.query": true, "cloud.build": true}

// spanMetrics reports each span name's median and p99 duration and
// median self time, plus the replay's tracing overhead.
func (r *result) spanMetrics(spans []Span, rr replayResult) {
	for _, st := range SpanStats(spans) {
		unit, scale := "us", 1e3
		if msSpans[st.Name] {
			unit, scale = "ms", 1.0
		}
		n := fmt.Sprintf("n=%d", st.Dur.N)
		r.add(metric{st.Name + ".p50_" + unit, st.Dur.P50 * scale, unit, n})
		r.add(metric{st.Name + ".p99_" + unit, st.Dur.P99 * scale, unit, fmt.Sprintf("%s, %d beyond", n, st.Dur.Beyond99)})
		r.add(metric{st.Name + ".self_" + unit, st.Self.P50 * scale, unit, "median self time, " + n})
	}
	r.add(metric{"trace.overhead_frac", rr.overhead(), "ratio", fmt.Sprintf(
		"traced %d requests in %v vs untraced %d in %v", rr.n[1], rr.elapsed[1].Round(time.Millisecond), rr.n[0], rr.elapsed[0].Round(time.Millisecond))})
	r.add(metric{"trace.spans", float64(len(spans)), "count", "spans kept in memory"})
}

// print writes the report lines and then the JSON line.
func (r *result) print(out io.Writer) error {
	var b strings.Builder
	b.WriteString(r.header + "\n")
	for _, m := range append(append([]metric(nil), r.extra...), r.final...) {
		fmt.Fprintf(&b, "%-44s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, f := range r.failures {
		fmt.Fprintf(&b, "FAILED %s\n", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	for _, m := range r.final {
		vals[m.name] = value{m.value, m.unit}
	}
	for _, n := range sortedKeys(r.line) {
		if _, ok := vals[n]; !ok && r.correct {
			return fmt.Errorf("metric %s was not measured", n)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, vals})
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteString("\n")
	_, err = io.WriteString(out, b.String())
	return err
}

// verifyDurable reopens a closed durable site and looks up every
// acknowledged write. It returns one line per write that did not
// survive.
func verifyDurable(dir string, acks []*ack) ([]string, error) {
	site, err := core.NewDurableSite(dir, durableOptions)
	if err != nil {
		return nil, fmt.Errorf("reopen %s: %w", dir, err)
	}
	defer site.Close()
	comments := site.DB.MustTable("Comments")
	ratings := site.DB.MustTable("Ratings")
	var missing []string
	for _, a := range acks {
		if a.commentID > 0 {
			row, ok := comments.Get(a.commentID)
			if !ok || row[1] != a.su || row[2] != a.course {
				missing = append(missing, fmt.Sprintf("%s comment %d by %d on %d", a.class, a.commentID, a.su, a.course))
				continue
			}
		}
		if a.rating > 0 {
			row, ok := ratings.Get(a.su, a.course)
			if !ok || row[2] != a.rating {
				missing = append(missing, fmt.Sprintf("%s rating %g by %d on %d", a.class, a.rating, a.su, a.course))
			}
		}
	}
	sort.Strings(missing)
	return missing, nil
}

// throughputOf is the successful requests of a closed loop per second
// of elapsed time. Over a phase of many seconds the mean absorbs the
// second-to-second swings of a shared machine better than a median of
// per-second counts.
func throughputOf(outs []outcome, elapsed time.Duration) float64 {
	ok := 0
	for _, o := range outs {
		if o.err == nil {
			ok++
		}
	}
	return float64(ok) / elapsed.Seconds()
}
