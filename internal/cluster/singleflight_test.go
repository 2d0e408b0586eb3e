package cluster

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCollapsesConcurrentCalls: N concurrent callers with one
// key run fn exactly once and all observe the identical result;
// exactly N-1 of them report shared.
func TestGroupCollapsesConcurrentCalls(t *testing.T) {
	var g Group
	var sharedEvents atomic.Int64
	g.Shared = func() { sharedEvents.Add(1) }

	var calls atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	fn := func(ctx context.Context) reply {
		calls.Add(1)
		started <- struct{}{}
		<-gate
		return reply{payload: []byte("payload"), status: 200, header: http.Header{"K": {"V"}}}
	}

	const n = 8
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	results := make([][]byte, n)

	// The leader goes first and blocks inside fn, guaranteeing the
	// other n-1 join its flight rather than racing to lead.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep, shared := g.Do(context.Background(), "k", fn)
		if rep.err != nil || shared {
			t.Errorf("leader: shared=%v err=%v", shared, rep.err)
		}
		results[0] = rep.payload
	}()
	<-started
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, shared := g.Do(context.Background(), "k", fn)
			if rep.err != nil {
				t.Errorf("caller %d: %v", i, rep.err)
			}
			if shared {
				sharedCount.Add(1)
			}
			if rep.status != 200 || rep.header.Get("K") != "V" {
				t.Errorf("caller %d: status=%d hdr=%v", i, rep.status, rep.header)
			}
			results[i] = rep.payload
		}(i)
	}
	// Let the joiners block on the flight before releasing it. Their
	// join is registered synchronously inside Do, but give the
	// goroutines a moment to reach it.
	for sharedEvents.Load() < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times, want 1", c)
	}
	if s := sharedCount.Load(); s != n-1 {
		t.Fatalf("%d callers shared, want %d", s, n-1)
	}
	for i, r := range results {
		if string(r) != "payload" {
			t.Fatalf("caller %d payload %q", i, r)
		}
	}

	// The flight is gone: a fresh call runs fn again.
	done := make(chan struct{})
	go func() {
		g.Do(context.Background(), "k", func(ctx context.Context) reply {
			calls.Add(1)
			return reply{status: 200}
		})
		close(done)
	}()
	<-done
	if c := calls.Load(); c != 2 {
		t.Fatalf("fresh call after completion reused stale flight (calls=%d)", c)
	}
}

// TestGroupDistinctKeysDoNotShare: different keys are independent
// flights.
func TestGroupDistinctKeysDoNotShare(t *testing.T) {
	var g Group
	var calls atomic.Int64
	fn := func(ctx context.Context) reply {
		calls.Add(1)
		return reply{status: 200}
	}
	var wg sync.WaitGroup
	for _, k := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			g.Do(context.Background(), k, fn)
		}(k)
	}
	wg.Wait()
	if c := calls.Load(); c != 3 {
		t.Fatalf("calls = %d, want 3", c)
	}
}

// TestGroupCancelsAbandonedFlight: when every waiter gives up, the
// flight's context is cancelled (the backend request is not orphaned)
// and the key is free for a fresh attempt.
func TestGroupCancelsAbandonedFlight(t *testing.T) {
	var g Group
	flightCancelled := make(chan struct{})
	fn := func(ctx context.Context) reply {
		<-ctx.Done()
		close(flightCancelled)
		return reply{err: ctx.Err()}
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		rep, _ := g.Do(ctx, "k", fn)
		errc <- rep.err
	}()
	// Wait for the flight to exist, then abandon it.
	for {
		g.mu.Lock()
		_, ok := g.flights["k"]
		g.mu.Unlock()
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("abandoning caller got %v, want context.Canceled", err)
	}
	select {
	case <-flightCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("flight context never cancelled after all waiters left")
	}

	// The key must be free immediately — not stuck on the dead flight.
	rep, shared := g.Do(context.Background(), "k",
		func(ctx context.Context) reply {
			return reply{payload: []byte("fresh"), status: 200}
		})
	if rep.err != nil || shared || string(rep.payload) != "fresh" {
		t.Fatalf("post-abandon call: payload=%q shared=%v err=%v", rep.payload, shared, rep.err)
	}
}

// TestGroupLeaderHangupKeepsFlight: the leader's own disconnect must
// not kill the flight while another caller still waits on it.
func TestGroupLeaderHangupKeepsFlight(t *testing.T) {
	var g Group
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	fn := func(ctx context.Context) reply {
		started <- struct{}{}
		select {
		case <-gate:
			return reply{payload: []byte("survived"), status: 200}
		case <-ctx.Done():
			return reply{err: ctx.Err()}
		}
	}

	leaderCtx, leaderCancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		rep, _ := g.Do(leaderCtx, "k", fn)
		leaderErr <- rep.err
	}()
	<-started

	joinerDone := make(chan string, 1)
	joined := make(chan struct{})
	go func() {
		close(joined)
		rep, _ := g.Do(context.Background(), "k", fn)
		if rep.err != nil {
			joinerDone <- "err: " + rep.err.Error()
			return
		}
		joinerDone <- string(rep.payload)
	}()
	<-joined
	// Make sure the joiner is registered on the flight before the
	// leader hangs up.
	for {
		g.mu.Lock()
		f := g.flights["k"]
		w := 0
		if f != nil {
			w = f.waiters
		}
		g.mu.Unlock()
		if w == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	leaderCancel()
	if err := <-leaderErr; err != context.Canceled {
		t.Fatalf("leader got %v, want context.Canceled", err)
	}
	close(gate)
	if got := <-joinerDone; got != "survived" {
		t.Fatalf("joiner got %q — leader hang-up killed the shared flight", got)
	}
}
