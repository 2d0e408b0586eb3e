package service

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"diffra/internal/telemetry"
	"diffra/internal/workloads"
)

// occupyWorker takes one worker slot and holds it until the returned
// (idempotent) release func runs, so a Workers:1 server is
// deterministically saturated.
func occupyWorker(t *testing.T, s *Server) (release func()) {
	t.Helper()
	var w *worker
	select {
	case w = <-s.workers:
	case <-time.After(5 * time.Second):
		t.Fatal("worker slot never acquired")
	}
	var once sync.Once
	release = func() { once.Do(func() { s.workers <- w }) }
	t.Cleanup(release) // never leak the slot on a failing assertion
	return release
}

func waitQueued(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth stuck at %d, want %d", s.queued.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionControlSheds pins the shed policy: with one worker
// occupied and MaxQueue(=1) requests already waiting, the next arrival
// is rejected immediately with Shed + a Retry-After hint, counted in
// service_load_shed_total — and the queued request still completes
// untouched once the worker frees.
func TestAdmissionControlSheds(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, MaxQueue: 1})
	release := occupyWorker(t, srv)

	queuedResp := make(chan Response, 1)
	go func() {
		queuedResp <- srv.Compile(context.Background(), Request{IR: tinyIR, Scheme: "select"})
	}()
	waitQueued(t, srv, 1)

	shed := srv.Compile(context.Background(), Request{IR: tinyIR, Scheme: "coalesce"})
	if !shed.Shed || shed.Error == "" {
		t.Fatalf("saturated server accepted the request: %+v", shed)
	}
	if shed.RetryAfterMs < 1000 {
		t.Fatalf("retry hint %dms below the 1s floor", shed.RetryAfterMs)
	}
	if got := srv.reg.Counter("service_load_shed_total").Value(); got != 1 {
		t.Fatalf("service_load_shed_total = %d, want 1", got)
	}
	// Sheds are their own outcome class, not compile errors.
	if got := srv.reg.Counter("service_errors").Value(); got != 0 {
		t.Fatalf("shed counted as service_errors (%d)", got)
	}

	release()
	if resp := <-queuedResp; resp.Error != "" || resp.Shed {
		t.Fatalf("queued request broken by the shed: %+v", resp)
	}
	if got := srv.reg.Counter("service_compiles_total").Value(); got != 1 {
		t.Fatalf("service_compiles_total = %d, want exactly the queued compile", got)
	}
}

// TestShedHTTP429RetryAfter pins the wire contract the router and
// load balancers rely on: 429 Too Many Requests plus a positive
// integer Retry-After header.
func TestShedHTTP429RetryAfter(t *testing.T) {
	h, ts := newTestHTTPWith(t, Config{Workers: 1, MaxQueue: 1})
	release := occupyWorker(t, h.Server)

	queuedResp := make(chan Response, 1)
	go func() {
		_, resp := postCompileURL(ts.URL, Request{IR: tinyIR, Scheme: "select"})
		queuedResp <- resp
	}()
	waitQueued(t, h.Server, 1)

	hr, resp := postCompile(t, ts.URL, Request{IR: tinyIR, Scheme: "coalesce"})
	if hr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status %s, want 429", hr.Status)
	}
	if !resp.Shed || resp.RetryAfterMs <= 0 {
		t.Fatalf("shed body %+v", resp)
	}
	if ra := hr.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header %q", ra)
	}

	release()
	if r := <-queuedResp; r.Error != "" {
		t.Fatalf("queued request failed: %+v", r)
	}
}

// TestMaxQueueIsExact: with the one worker held, a stampede of 64
// misses queues exactly MaxQueue of them and sheds the rest, and the
// queued ones complete once the worker is free.
func TestMaxQueueIsExact(t *testing.T) {
	const n, maxQueue = 64, 2
	srv := newTestServer(t, Config{Workers: 1, MaxQueue: maxQueue})
	release := occupyWorker(t, srv)

	resps := make(chan Response, n)
	start := make(chan struct{})
	for range n {
		go func() {
			<-start
			resps <- srv.Compile(context.Background(), Request{IR: tinyIR, Scheme: "select"})
		}()
	}
	close(start) // all at once, so reservations race
	timeout := time.After(10 * time.Second)
	for shed := 0; shed < n-maxQueue; shed++ {
		select {
		case resp := <-resps:
			if !resp.Shed {
				t.Fatalf("a request got past the held worker: %+v", resp)
			}
		case <-timeout:
			t.Fatalf("%d requests shed, want %d (queue depth %d)", shed, n-maxQueue, srv.queued.Load())
		}
	}
	waitQueued(t, srv, maxQueue)
	if got := srv.reg.Counter("service_load_shed_total").Value(); got != n-maxQueue {
		t.Fatalf("service_load_shed_total = %d, want %d", got, n-maxQueue)
	}

	release()
	for i := 0; i < maxQueue; i++ {
		if resp := <-resps; resp.Error != "" || resp.Shed {
			t.Fatalf("queued request %d: %+v", i, resp)
		}
	}
}

// TestQueuedPastDeadlineNeverCompiles: a request whose deadline ends
// while it waits for a worker fails as a timeout without compiling. Its
// wait counts in service_compile_us but not in service_queue_wait_us,
// which only admitted requests reach.
func TestQueuedPastDeadlineNeverCompiles(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	occupyWorker(t, srv)

	resp := srv.Compile(context.Background(), Request{IR: tinyIR, Scheme: "select", TimeoutMs: 20})
	if !resp.Timeout || !strings.Contains(resp.Error, "queued past deadline") {
		t.Fatalf("expired queued request: %+v", resp)
	}
	if n := srv.reg.Counter("service_compiles_total").Value(); n != 0 {
		t.Fatalf("service_compiles_total = %d, want 0", n)
	}
	if n := srv.reg.Histogram("service_compile_us").Snapshot().Count; n != 1 {
		t.Fatalf("service_compile_us observed %d requests, want 1", n)
	}
	if n := srv.reg.Histogram("service_queue_wait_us").Snapshot().Count; n != 0 {
		t.Fatalf("service_queue_wait_us observed %d requests, want 0", n)
	}
	if q := srv.queued.Load(); q != 0 {
		t.Fatalf("queue depth %d after the request left, want 0", q)
	}
}

// TestWorkersBoundConcurrency: however many misses arrive at once, no
// more compiles run at a time than the server has worker slots. The
// compiles' own span trees, kept in the trace ring, show when each ran.
// One slot keeps the bound below the CPUs of any multi-core host, where
// an unbounded server would overlap compiles.
func TestWorkersBoundConcurrency(t *testing.T) {
	const workers, n = 1, 20
	srv := newTestServer(t, Config{Workers: workers})
	if srv.Workers() != workers {
		t.Fatalf("Workers() = %d, want %d", srv.Workers(), workers)
	}
	susan := workloads.KernelByName("susan").F.String()
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := Request{IR: strings.Replace(susan, "func susan", fmt.Sprintf("func f%d", i), 1), Scheme: "select"}
			if resp := srv.Compile(context.Background(), req); resp.Error != "" {
				t.Error(resp.Error)
			}
		}()
	}
	wg.Wait()

	var roots []*telemetry.Span
	for _, rec := range srv.Traces() {
		if rec.Root() != nil {
			roots = append(roots, rec.Root())
		}
	}
	if len(roots) != n {
		t.Fatalf("%d compile span trees, want %d", len(roots), n)
	}
	peak := 0
	for _, a := range roots {
		running := 0
		for _, b := range roots {
			if !b.Start.After(a.Start) && b.Start.Add(b.Dur).After(a.Start) {
				running++
			}
		}
		peak = max(peak, running)
	}
	if peak > workers {
		t.Fatalf("%d compiles ran at once on %d worker slots", peak, workers)
	}
}

// TestIdleBurstNeverShed: MaxQueue bounds only the requests waiting
// for a worker, so a burst no larger than the worker count, arriving
// at an idle server, is never shed, however small MaxQueue is.
func TestIdleBurstNeverShed(t *testing.T) {
	const workers = 4
	for round := range 100 {
		srv := newTestServer(t, Config{Workers: workers, MaxQueue: 1})
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				req := Request{IR: strings.Replace(tinyIR, "func tiny", fmt.Sprintf("func f%d", i), 1)}
				if resp := srv.Compile(context.Background(), req); resp.Error != "" {
					t.Errorf("round %d: %s", round, resp.Error)
				}
			}()
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}
