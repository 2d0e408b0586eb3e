package service

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// slowIR builds a function whose optimal-spill ILP is expensive even
// for the decomposing solver: `blocks` clusters of `w` ranges where
// every value of cluster k+1 is computed from two values of cluster k,
// so consecutive clusters' live ranges overlap at every program point.
// The over-pressure constraints at K=6 form one connected component of
// chain-overlapping windows (no decomposition, weak disjoint-sum
// bound) with near-uniform costs, so an uncancelled solve runs for on
// the order of a second. The cancellation tests rely on interrupting
// it mid-solve.
func slowIR(blocks, w int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func slow(v0) {\nentry:\n")
	next := 1
	cur := make([]int, w)
	for i := 0; i < w; i++ {
		fmt.Fprintf(&b, "  v%d = li %d\n", next, i)
		cur[i] = next
		next++
	}
	for blk := 1; blk < blocks; blk++ {
		nxt := make([]int, w)
		for i := 0; i < w; i++ {
			fmt.Fprintf(&b, "  v%d = add v%d, v%d\n", next, cur[i], cur[(i+1)%w])
			nxt[i] = next
			next++
		}
		cur = nxt
	}
	acc := cur[0]
	for i := 1; i < w; i++ {
		fmt.Fprintf(&b, "  v%d = xor v%d, v%d\n", next, acc, cur[i])
		acc = next
		next++
	}
	fmt.Fprintf(&b, "  ret v%d\n}\n", acc)
	return b.String()
}

const tinyIR = `func tiny(v0) {
entry:
  v1 = li 1
  v2 = add v0, v1
  ret v2
}
`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (small slack for runtime helpers), failing after 5s.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d at start", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeadlineAbortsOspill is the headline acceptance check: a
// 1ms-deadline request against an ILP that runs ~1s uncancelled must
// come back promptly, flagged as a timeout, without leaking a
// goroutine.
func TestDeadlineAbortsOspill(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := newTestServer(t, Config{})

	started := time.Now()
	resp := srv.Compile(context.Background(), Request{
		IR: slowIR(4, 12), Scheme: "ospill", RegN: 6, TimeoutMs: 1,
	})
	elapsed := time.Since(started)

	if resp.Error == "" {
		t.Fatal("deadline-bound ospill request succeeded; instance not slow enough")
	}
	if !resp.Timeout {
		t.Fatalf("Timeout not set on deadline error: %q", resp.Error)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("timeout was not prompt: took %v", elapsed)
	}
	if got := srv.Registry().Counter("service_timeouts").Value(); got != 1 {
		t.Fatalf("service_timeouts = %d, want 1", got)
	}
	waitGoroutines(t, base)
}

// TestCancelStopsInflightSolve cancels the request context while the
// ILP is running; the compile must return well before the solve would
// finish on its own (~4s uncancelled).
func TestCancelStopsInflightSolve(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := newTestServer(t, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	started := time.Now()
	resp := srv.Compile(ctx, Request{IR: slowIR(4, 14), Scheme: "ospill", RegN: 6})
	elapsed := time.Since(started)

	if resp.Error == "" {
		t.Fatal("cancelled request reported success; the solve ran to completion")
	}
	if !resp.Timeout {
		t.Fatalf("cancellation not classified as timeout: %q", resp.Error)
	}
	if elapsed > 1200*time.Millisecond {
		t.Fatalf("cancellation was not prompt: took %v", elapsed)
	}
	waitGoroutines(t, base)
}

func TestCacheHitOnRepeat(t *testing.T) {
	srv := newTestServer(t, Config{})
	req := Request{IR: tinyIR, Scheme: "select"}

	first := srv.Compile(context.Background(), req)
	if first.Error != "" {
		t.Fatalf("first compile: %s", first.Error)
	}
	if first.Cached {
		t.Fatal("first compile claims a cache hit")
	}
	second := srv.Compile(context.Background(), req)
	if second.Error != "" {
		t.Fatalf("second compile: %s", second.Error)
	}
	if !second.Cached {
		t.Fatal("identical repeat was not a cache hit")
	}
	second.Cached = false
	if first != second {
		t.Fatalf("cached response differs:\n%+v\n%+v", first, second)
	}
	reg := srv.Registry()
	if h := reg.Counter("service_cache_hits").Value(); h != 1 {
		t.Fatalf("cache hits = %d, want 1", h)
	}
	if m := reg.Counter("service_cache_misses").Value(); m != 1 {
		t.Fatalf("cache misses = %d, want 1", m)
	}
}

// TestRetainedNamesDoNotPinRequest: the cache and the trace ring
// outlive the request, so the function name they keep must be its own
// copy, not a substring of the request's IR — or every retained entry
// keeps its whole request body alive.
func TestRetainedNamesDoNotPinRequest(t *testing.T) {
	srv := newTestServer(t, Config{})
	req := Request{IR: strings.Repeat(" ", 4096) + tinyIR, Scheme: "select"}
	pins := func(what, s string) {
		t.Helper()
		if s == "" {
			t.Fatalf("%s is empty", what)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(req.IR)))
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		if p >= lo && p < lo+uintptr(len(req.IR)) {
			t.Errorf("%s %q points into the request source", what, s)
		}
	}
	miss := srv.Compile(context.Background(), req)
	if miss.Error != "" || miss.Cached {
		t.Fatalf("first compile: cached=%v err=%q", miss.Cached, miss.Error)
	}
	hit := srv.Compile(context.Background(), req)
	if !hit.Cached {
		t.Fatal("repeat was not a cache hit")
	}
	pins("cached Response.Func", hit.Func)
	var compiled *TraceRecord
	for _, rec := range srv.Traces() {
		pins("TraceRecord.Func", rec.Func)
		if rec.Root() != nil {
			compiled = rec
		}
	}
	if compiled == nil {
		t.Fatal("no retained trace carries a span tree")
	}
	name, _ := compiled.Root().Attr("func").(string)
	pins("root span func attr", name)
}

// TestCacheKeyResolvesDefaults: spelling out the defaults and leaving
// them zero must share one cache entry.
func TestCacheKeyResolvesDefaults(t *testing.T) {
	srv := newTestServer(t, Config{})
	if r := srv.Compile(context.Background(), Request{IR: tinyIR}); r.Error != "" {
		t.Fatalf("compile: %s", r.Error)
	}
	r := srv.Compile(context.Background(), Request{
		IR: tinyIR, Scheme: "select", RegN: 12, DiffN: 8, Restarts: 1000,
	})
	if r.Error != "" {
		t.Fatalf("compile: %s", r.Error)
	}
	if !r.Cached {
		t.Fatal("explicit-defaults request missed the zero-value entry")
	}
}

func TestBadRequestsAreErrorsNotPanics(t *testing.T) {
	srv := newTestServer(t, Config{})
	for _, req := range []Request{
		{IR: "not ir at all"},
		{IR: tinyIR, Scheme: "no-such-scheme"},
		{IR: tinyIR, Scheme: "select", RegN: 4, DiffN: 9}, // DiffN > RegN
		{IR: strings.Repeat("x", 2<<20)},                  // over the size limit
	} {
		resp := srv.Compile(context.Background(), req)
		if resp.Error == "" {
			t.Fatalf("bad request %+v reported success", req)
		}
		if resp.Timeout {
			t.Fatalf("validation failure misclassified as timeout: %q", resp.Error)
		}
	}
	if e := srv.Registry().Counter("service_errors").Value(); e != 4 {
		t.Fatalf("service_errors = %d, want 4", e)
	}
}

func TestConcurrentCompilesShareOneRegistry(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 4, CacheEntries: -1})
	const n = 16
	done := make(chan Response, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			ir := strings.Replace(tinyIR, "func tiny", fmt.Sprintf("func tiny%d", i), 1)
			done <- srv.Compile(context.Background(), Request{IR: ir, Scheme: "select"})
		}(i)
	}
	for i := 0; i < n; i++ {
		if resp := <-done; resp.Error != "" {
			t.Fatalf("concurrent compile failed: %s", resp.Error)
		}
	}
	reg := srv.Registry()
	if got := reg.Counter("service_requests").Value(); got != n {
		t.Fatalf("service_requests = %d, want %d", got, n)
	}
	if got := reg.Gauge("service_inflight").Value(); got != 0 {
		t.Fatalf("service_inflight = %d after drain, want 0", got)
	}
}

// TestCacheKeyCanonicalization pins the contract that cache keys are
// computed over *resolved* options: a request spelling out the
// defaults and one leaving them zero must share an entry, while any
// genuinely different option must miss.
func TestCacheKeyCanonicalization(t *testing.T) {
	cases := []struct {
		name string
		a, b Request
		hit  bool
	}{
		{"implicit defaults vs explicit",
			Request{IR: tinyIR},
			Request{IR: tinyIR, Scheme: "select", RegN: 12, DiffN: 8, Restarts: 1000}, true},
		{"diffn default is min(8, regn)",
			Request{IR: tinyIR, Scheme: "select", RegN: 4},
			Request{IR: tinyIR, Scheme: "select", RegN: 4, DiffN: 4}, true},
		{"baseline ignores restarts",
			Request{IR: tinyIR, Scheme: "baseline", Restarts: 5},
			Request{IR: tinyIR, Scheme: "baseline", Restarts: 99}, true},
		{"ospill ignores restarts",
			Request{IR: tinyIR, Scheme: "ospill", RegN: 8, Restarts: 3},
			Request{IR: tinyIR, Scheme: "ospill", RegN: 8}, true},
		{"timeout is not part of the key",
			Request{IR: tinyIR, Scheme: "select", TimeoutMs: 5000},
			Request{IR: tinyIR, Scheme: "select"}, true},
		{"scheme differs",
			Request{IR: tinyIR, Scheme: "select"},
			Request{IR: tinyIR, Scheme: "remapping"}, false},
		{"regn differs",
			Request{IR: tinyIR, Scheme: "select", RegN: 12},
			Request{IR: tinyIR, Scheme: "select", RegN: 16}, false},
		{"diffn differs",
			Request{IR: tinyIR, Scheme: "select", RegN: 12, DiffN: 8},
			Request{IR: tinyIR, Scheme: "select", RegN: 12, DiffN: 7}, false},
		{"restarts differ on a differential scheme",
			Request{IR: tinyIR, Scheme: "select", Restarts: 10},
			Request{IR: tinyIR, Scheme: "select", Restarts: 20}, false},
		{"listing request compiles separately",
			Request{IR: tinyIR, Scheme: "select"},
			Request{IR: tinyIR, Scheme: "select", Listing: true}, false},
		{"explain request compiles separately",
			Request{IR: tinyIR, Scheme: "select"},
			Request{IR: tinyIR, Scheme: "select", Explain: true}, false},
		{"ir differs",
			Request{IR: tinyIR, Scheme: "select"},
			Request{IR: strings.Replace(tinyIR, "li 1", "li 2", 1), Scheme: "select"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := newTestServer(t, Config{})
			if resp := srv.Compile(context.Background(), tc.a); resp.Error != "" {
				t.Fatalf("first compile: %s", resp.Error)
			}
			resp := srv.Compile(context.Background(), tc.b)
			if resp.Error != "" {
				t.Fatalf("second compile: %s", resp.Error)
			}
			if resp.Cached != tc.hit {
				t.Fatalf("cached = %v, want %v", resp.Cached, tc.hit)
			}
		})
	}
}

func TestSelfCheckSamplesAndCountsRuns(t *testing.T) {
	// SelfCheck: 2 → every second successful compile is shadow-oracled.
	srv := newTestServer(t, Config{SelfCheck: 2, CacheEntries: -1})
	const n = 6
	for i := 0; i < n; i++ {
		ir := strings.Replace(tinyIR, "func tiny", fmt.Sprintf("func tiny%d", i), 1)
		if resp := srv.Compile(context.Background(), Request{IR: ir, Scheme: "coalesce", RegN: 8, DiffN: 2}); resp.Error != "" {
			t.Fatalf("compile %d: %s", i, resp.Error)
		}
	}
	reg := srv.Registry()
	if got := reg.Counter("service_selfcheck_runs").Value(); got != n/2 {
		t.Fatalf("service_selfcheck_runs = %d, want %d", got, n/2)
	}
	if got := reg.Counter("service_selfcheck_divergences").Value(); got != 0 {
		t.Fatalf("service_selfcheck_divergences = %d on healthy compiles", got)
	}
}

func TestSelfCheckOffByDefault(t *testing.T) {
	srv := newTestServer(t, Config{})
	if resp := srv.Compile(context.Background(), Request{IR: tinyIR, Scheme: "select"}); resp.Error != "" {
		t.Fatalf("compile: %s", resp.Error)
	}
	if got := srv.Registry().Counter("service_selfcheck_runs").Value(); got != 0 {
		t.Fatalf("selfcheck ran without being enabled: %d", got)
	}
}

func TestSelfCheckCoversEverySchemeAndCacheSkips(t *testing.T) {
	srv := newTestServer(t, Config{SelfCheck: 1})
	for _, scheme := range []string{"baseline", "remapping", "select", "ospill", "coalesce"} {
		resp := srv.Compile(context.Background(), Request{IR: tinyIR, Scheme: scheme, RegN: 8, DiffN: 4, Restarts: 20})
		if resp.Error != "" {
			t.Fatalf("%s: %s", scheme, resp.Error)
		}
	}
	reg := srv.Registry()
	if got := reg.Counter("service_selfcheck_runs").Value(); got != 5 {
		t.Fatalf("service_selfcheck_runs = %d, want 5", got)
	}
	if got := reg.Counter("service_selfcheck_divergences").Value(); got != 0 {
		t.Fatalf("divergences on healthy compiles: %d", got)
	}
	// A cache hit serves the stored response without recompiling, so
	// it must not count as a self-check run either.
	if resp := srv.Compile(context.Background(), Request{IR: tinyIR, Scheme: "select", RegN: 8, DiffN: 4, Restarts: 20}); !resp.Cached {
		t.Fatal("expected a cache hit")
	}
	if got := reg.Counter("service_selfcheck_runs").Value(); got != 5 {
		t.Fatalf("cache hit triggered a selfcheck: runs = %d", got)
	}
}

func TestListingAndExplainRendered(t *testing.T) {
	srv := newTestServer(t, Config{})
	resp := srv.Compile(context.Background(), Request{
		IR: slowIR(2, 10), Scheme: "select", Listing: true, Explain: true,
	})
	if resp.Error != "" {
		t.Fatalf("compile: %s", resp.Error)
	}
	if resp.Listing == "" {
		t.Fatal("listing requested but empty")
	}
	if resp.Explain == "" {
		t.Fatal("explain requested but empty")
	}
}
