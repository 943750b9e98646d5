package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// The machine this benchmark runs on is a few cores of a shared host,
// and the host's speed drifts: a fixed loop of JSON encoding, sorting
// and map updates on two goroutines ran anywhere from 21,400 to 35,700
// times per 10 s within 150 s (2-core virtual machine), and two sets of
// ten browse runs taken twenty-five minutes apart differed by a fifth
// in throughput and a quarter in set-up time. No figure in wall seconds
// holds a bound of a quarter from one set to the next on such a machine.
//
// The reference service gives the machine's speed at the moment a
// timing is taken. It is a plain net/http service on its own loopback
// listener that answers every request with one fixed JSON document,
// which the client decodes: the transport, encoding and allocation work
// of a CourseRank request, with no CourseRank code in it, so no change
// to the program moves it. Each timed stretch is bracketed by short
// closed loops against it, and the stretch's wall time is scaled by the
// measured rate over refNominalRate. A timing in reference seconds is
// the one a machine serving the reference at refNominalRate would show.
type reference struct {
	url  string
	hc   *http.Client
	srv  *http.Server
	done chan error
}

const (
	// refNominalRate defines the reference second, in requests per
	// second. It only sets the scale: a round figure near the reference
	// service's closed-loop rate with two clients on a 2-core virtual
	// machine, where readings ran from 0.98 to 1.56 of it.
	refNominalRate = 15000.0
	// refSlice is how long each speed reading sends to the reference.
	refSlice = 100 * time.Millisecond
)

// refRow is one row of the reference document.
type refRow struct {
	ID    int      `json:"id"`
	Name  string   `json:"name"`
	Score float64  `json:"score"`
	Tags  []string `json:"tags"`
}

// refDoc is the document the reference service returns.
var refDoc = func() []refRow {
	rows := make([]refRow, 10)
	for i := range rows {
		rows[i] = refRow{i, fmt.Sprintf("course-%03d", i*7919%1000), float64(i*31%97) / 3, []string{"a", "b", "c"}}
	}
	return rows
}()

// startReference serves the reference document on 127.0.0.1 and opens
// a client with at most conns keep-alive connections to it.
func startReference(conns int) (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference listen: %w", err)
	}
	r := &reference{
		url: "http://" + ln.Addr().String() + "/",
		hc: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}},
		srv: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(refDoc)
		})},
		done: make(chan error, 1),
	}
	go func() { r.done <- r.srv.Serve(ln) }()
	return r, nil
}

// one sends one request and checks that the document came back whole.
func (r *reference) one() error {
	resp, err := r.hc.Get(r.url)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var rows []refRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if resp.StatusCode != http.StatusOK || len(rows) != len(refDoc) || rows[len(rows)-1].Name != refDoc[len(refDoc)-1].Name {
		return fmt.Errorf("reference: status %d, %d rows", resp.StatusCode, len(rows))
	}
	return nil
}

// speed runs workers closed-loop clients against the reference for
// refSlice and returns their rate over refNominalRate. A collection
// first finishes any cycle the program's traffic left running, so the
// reading starts from the same heap state whatever the workload
// allocates, and the reading itself allocates too little to start one.
func (r *reference) speed(workers int) (float64, error) {
	runtime.GC()
	counts := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < refSlice && errs[w] == nil {
				if errs[w] = r.one(); errs[w] == nil {
					counts[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	n := 0
	for _, c := range counts {
		n += c
	}
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	return float64(n) / time.Since(start).Seconds() / refNominalRate, nil
}

// close stops the reference service and waits for its serve loop.
func (r *reference) close() error {
	r.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// timedClosedLoop runs a closed loop for dur in slices of about a
// second, reading the reference speed before the first slice and after
// each one. It returns the outcomes, the wall time, and the time in
// reference seconds: each slice's wall time times the mean of the two
// speeds read on either side of it.
func timedClosedLoop(c *client, gen *Generator, ref *reference, dur time.Duration, workers int) (outs []outcome, wall, refTime time.Duration, err error) {
	slices := int(dur / time.Second)
	if slices < 1 {
		slices = 1
	}
	prev, err := ref.speed(workers)
	if err != nil {
		return nil, 0, 0, err
	}
	for i := 0; i < slices; i++ {
		o, el := closedLoop(c, gen, dur/time.Duration(slices), workers)
		next, err := ref.speed(workers)
		if err != nil {
			return nil, 0, 0, err
		}
		outs, wall = append(outs, o...), wall+el
		refTime += time.Duration(float64(el) * (prev + next) / 2)
		prev = next
	}
	return outs, wall, refTime, nil
}
