package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// outcome is one HTTP request as the client saw it. Times are offsets
// from the start of the phase: due is when the schedule said to send,
// sent when a connection took it, done when the response was read and
// checked. In a closed loop due equals sent.
type outcome struct {
	class           Class
	fp              string // "METHOD /path", the server's HTTP fingerprint
	due, sent, done time.Duration
	hits            int
	ack             *ack
	err             error
}

// latency is the request's latency from its due time, in milliseconds.
func (o outcome) latency() float64 { return float64(o.done-o.due) / 1e6 }

// service is the request's latency from its send time, in milliseconds.
func (o outcome) service() float64 { return float64(o.done-o.sent) / 1e6 }

// client sends generated requests to one server over at most conns
// keep-alive connections and checks every response.
type client struct {
	base string
	u    *Universe
	hc   *http.Client

	// stuck is cancelled when a request times out: a server that holds
	// one request that long has stopped, so every request in flight is
	// abandoned and none is sent after it.
	stuck     context.Context
	markStuck context.CancelFunc
}

// errSkipped marks a request abandoned or never sent because the server
// had stopped answering.
var errSkipped = errors.New("not sent: the server stopped answering")

// requestTimeout is how long a request may take before the client gives
// up on it; the slowest request class takes well under a second.
const requestTimeout = 5 * time.Second

func newClient(base string, u *Universe, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	stuck, markStuck := context.WithCancel(context.Background())
	return &client{base: base, u: u, hc: &http.Client{Transport: tr, Timeout: requestTimeout},
		stuck: stuck, markStuck: markStuck}
}

// close abandons any request still in flight and drops the client's
// idle connections.
func (c *client) close() {
	c.markStuck()
	c.hc.CloseIdleConnections()
}

// do sends one request and checks the response. Anything but a 200
// whose body passes the class's check is an error.
func (c *client) do(r Request, path string) (checked, error) {
	var body io.Reader
	if b := r.Body(); b != nil {
		body = bytes.NewReader(b)
	}
	if c.stuck.Err() != nil {
		return checked{}, errSkipped
	}
	req, err := http.NewRequestWithContext(c.stuck, r.Method(), c.base+path, body)
	if err != nil {
		return checked{}, err
	}
	st := c.u.Students[r.Student]
	req.Header.Set("Authorization", "Bearer "+st.Token)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			c.markStuck()
		}
		return checked{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return checked{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return checked{}, fmt.Errorf("%s %s: status %d: %.200s", r.Method(), path, resp.StatusCode, data)
	}
	res, err := check(r, st.ID, c.u, data)
	if err != nil {
		return checked{}, fmt.Errorf("%s %s: %w", r.Method(), path, err)
	}
	return res, nil
}

// send runs one request and fills its outcome's result fields.
func (c *client) send(r Request, start time.Time, o *outcome) {
	path := r.Path()
	route, _, _ := strings.Cut(path, "?")
	o.class, o.fp = r.Class, r.Method()+" "+route
	res, err := c.do(r, path)
	o.done = time.Since(start)
	o.hits, o.ack, o.err = res.hits, res.ack, err
}

// schedule is an open loop's arrival plan: Poisson arrivals at a fixed
// rate, each carrying the next request of the stream.
type schedule struct {
	due  []time.Duration
	reqs []Request
}

// poissonSchedule draws arrivals at rate per second over dur from its
// own seeded source, taking requests from gen in order.
func poissonSchedule(gen *Generator, rate float64, dur time.Duration, seed int64) schedule {
	rng := rand.New(rand.NewSource(seed))
	var s schedule
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return s
		}
		s.due = append(s.due, d)
		s.reqs = append(s.reqs, gen.Next())
	}
}

// openLoop sends a schedule: a dispatcher releases each request at its
// due time, and workers (one per connection) send them in order.
// Requests wait in the queue while every connection is busy, and that
// wait counts in their latency. late holds how far behind schedule the
// dispatcher released each request, in milliseconds.
func openLoop(c *client, s schedule, workers int) (outs []outcome, late []float64) {
	outs = make([]outcome, len(s.reqs))
	late = make([]float64, len(s.reqs))
	// Sized to the number of sends, so the dispatcher never blocks.
	queue := make(chan int, len(s.reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				outs[i].due = s.due[i]
				outs[i].sent = time.Since(start)
				c.send(s.reqs[i], start, &outs[i])
			}
		}()
	}
	for i, due := range s.due {
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		late[i] = float64(time.Since(start)-due) / 1e6
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs, late
}

// sharedGen lets several closed-loop clients draw from one stream.
type sharedGen struct {
	mu  sync.Mutex
	gen *Generator
}

func (g *sharedGen) next() Request {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gen.Next()
}

// closedLoop runs workers clients for dur, each sending its next
// request as soon as the previous one returns. It returns every
// outcome and the phase's wall time.
func closedLoop(c *client, gen *Generator, dur time.Duration, workers int) ([]outcome, time.Duration) {
	sg := &sharedGen{gen: gen}
	per := make([][]outcome, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < dur && c.stuck.Err() == nil {
				var o outcome
				o.sent = time.Since(start)
				o.due = o.sent
				c.send(sg.next(), start, &o)
				per[w] = append(per[w], o)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	// In completion order, as Windowed expects.
	sort.Slice(outs, func(i, j int) bool { return outs[i].done < outs[j].done })
	return outs, elapsed
}
