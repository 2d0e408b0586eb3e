package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"diffra/internal/service"
	"diffra/internal/telemetry"
)

const tinyIR = `func tiny(v0) {
entry:
  v1 = li 1
  v2 = add v0, v1
  ret v2
}
`

func tinyIRNamed(name string) string {
	return strings.Replace(tinyIR, "func tiny", "func "+name, 1)
}

// backend is one diffrad-equivalent node under test: a real service
// HTTP handler with its own registry, optionally wrapped.
type backend struct {
	url string
	reg *telemetry.Registry
	ts  *httptest.Server
	// delay, when set, stalls every /compile — used to force hedging.
	delay atomic.Int64 // nanoseconds
	// gate, when non-nil, blocks every /compile until closed — used to
	// pin the singleflight window open.
	gate chan struct{}
}

func startBackend(t *testing.T, cfg service.Config) *backend {
	t.Helper()
	h, err := service.NewHTTP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := &backend{reg: h.Registry()}
	inner := h.Handler()
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/compile" {
			if d := b.delay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if g := b.gate; g != nil {
				<-g
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(b.ts.Close)
	b.url = b.ts.URL
	return b
}

func newTestRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1 // no background poller: deterministic tests
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// postRaw returns the raw response so payload bytes can be compared
// across callers.
func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	hr, err := http.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	payload, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	return hr, payload
}

func compileBody(t *testing.T, req service.Request) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRouterRoutesConsistently: the same request always lands on the
// same backend (so its cache is effective — the second call is a
// cache hit) and the other node never sees the key.
func TestRouterRoutesConsistently(t *testing.T) {
	a, b := startBackend(t, service.Config{}), startBackend(t, service.Config{})
	_, ts := newTestRouter(t, Config{Nodes: []string{a.url, b.url}})
	body := compileBody(t, service.Request{IR: tinyIR, Scheme: "select"})

	hr1, p1 := postRaw(t, ts.URL, body)
	hr2, p2 := postRaw(t, ts.URL, body)
	if hr1.StatusCode != http.StatusOK || hr2.StatusCode != http.StatusOK {
		t.Fatalf("status %s / %s", hr1.Status, hr2.Status)
	}
	n1, n2 := hr1.Header.Get("X-Diffra-Backend"), hr2.Header.Get("X-Diffra-Backend")
	if n1 == "" || n1 != n2 {
		t.Fatalf("same key routed to different backends: %q vs %q", n1, n2)
	}
	var r1, r2 service.Response
	if err := json.Unmarshal(p1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(p2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Error != "" || r1.Cached {
		t.Fatalf("first response: %+v", r1)
	}
	if !r2.Cached {
		t.Fatal("second identical request missed the owner's cache")
	}

	owner, other := a, b
	if n1 == b.url {
		owner, other = b, a
	}
	if got := owner.reg.Counter("service_compiles_total").Value(); got != 1 {
		t.Fatalf("owner ran %d compiles, want 1", got)
	}
	if got := other.reg.Counter("service_requests").Value(); got != 0 {
		t.Fatalf("non-owner saw %d requests, want 0", got)
	}
}

// TestRouterDedupSingleCompile is the determinism/dedup acceptance
// proof: N concurrent identical /compile requests through the router
// produce byte-identical responses and exactly ONE compile across the
// whole fleet — pinned by the singleflight counter on the router and
// the compile counters on every backend.
func TestRouterDedupSingleCompile(t *testing.T) {
	gate := make(chan struct{})
	a, b := startBackend(t, service.Config{}), startBackend(t, service.Config{})
	a.gate, b.gate = gate, gate // hold the one upstream call open

	rt, ts := newTestRouter(t, Config{Nodes: []string{a.url, b.url}})
	body := compileBody(t, service.Request{IR: tinyIR, Scheme: "select", Listing: true})

	const n = 8
	var wg sync.WaitGroup
	payloads := make([][]byte, n)
	sharedHdr := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hr, p := postRaw(t, ts.URL, body)
			payloads[i] = p
			sharedHdr[i] = hr.Header.Get("X-Diffra-Singleflight") == "shared"
		}(i)
	}
	// All but the leader must have joined the flight before we let the
	// backend answer.
	deadline := time.Now().Add(10 * time.Second)
	for rt.reg.Counter("router_singleflight_shared_total").Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d callers joined the flight",
				rt.reg.Counter("router_singleflight_shared_total").Value(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i := 1; i < n; i++ {
		if !bytes.Equal(payloads[0], payloads[i]) {
			t.Fatalf("caller %d got a different payload:\n%s\nvs\n%s", i, payloads[0], payloads[i])
		}
	}
	var resp service.Response
	if err := json.Unmarshal(payloads[0], &resp); err != nil || resp.Error != "" {
		t.Fatalf("shared payload broken: %v %+v", err, resp)
	}
	total := a.reg.Counter("service_compiles_total").Value() + b.reg.Counter("service_compiles_total").Value()
	if total != 1 {
		t.Fatalf("fleet ran %d compiles for %d identical requests, want exactly 1", total, n)
	}
	if reqs := a.reg.Counter("service_requests").Value() + b.reg.Counter("service_requests").Value(); reqs != 1 {
		t.Fatalf("fleet saw %d requests, want 1 (singleflight leak)", reqs)
	}
	shared := 0
	for _, s := range sharedHdr {
		if s {
			shared++
		}
	}
	if shared != n-1 {
		t.Fatalf("%d responses marked shared, want %d", shared, n-1)
	}
}

// TestRouterFailover: when the owner is down, the request lands on
// the ring successor instead of failing.
func TestRouterFailover(t *testing.T) {
	a, b := startBackend(t, service.Config{}), startBackend(t, service.Config{})
	rt, ts := newTestRouter(t, Config{Nodes: []string{a.url, b.url}})
	body := compileBody(t, service.Request{IR: tinyIR, Scheme: "select"})

	owner := rt.ring.Owner(RouteKey(body))
	survivor := a
	if owner == a.url {
		a.ts.Close()
		survivor = b
	} else {
		b.ts.Close()
	}

	hr, p := postRaw(t, ts.URL, body)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("failover request: %s\n%s", hr.Status, p)
	}
	if got := hr.Header.Get("X-Diffra-Backend"); got != survivor.url {
		t.Fatalf("served by %q, want survivor %q", got, survivor.url)
	}
	var resp service.Response
	if err := json.Unmarshal(p, &resp); err != nil || resp.Error != "" {
		t.Fatalf("failover payload: %v %+v", err, resp)
	}
	if got := rt.reg.Counter("router_failovers_total").Value(); got < 1 {
		t.Fatalf("router_failovers_total = %d, want >= 1", got)
	}
}

// TestRouterShedPassthrough: a backend's 429 is an authoritative
// answer from the key's owner — the router forwards it (with
// Retry-After) instead of retrying on a node that doesn't own the key.
func TestRouterShedPassthrough(t *testing.T) {
	shed := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "7")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(service.Response{
				Error: "service: overloaded, worker queue full", Shed: true, RetryAfterMs: 7000,
			})
		}))
	}
	a, b := shed(), shed()
	defer a.Close()
	defer b.Close()
	rt, ts := newTestRouter(t, Config{Nodes: []string{a.URL, b.URL}})

	hr, p := postRaw(t, ts.URL, compileBody(t, service.Request{IR: tinyIR, Scheme: "select"}))
	if hr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %s, want 429 passed through\n%s", hr.Status, p)
	}
	if got := hr.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want the backend's 7", got)
	}
	var resp service.Response
	if err := json.Unmarshal(p, &resp); err != nil || !resp.Shed {
		t.Fatalf("shed body lost in transit: %v %+v", err, resp)
	}
	if got := rt.reg.Counter("router_failovers_total").Value(); got != 0 {
		t.Fatalf("429 triggered %d failovers; sheds must not cascade across nodes", got)
	}
}

// TestRouterBatchStreamsInOrder: /batch responses come back one line
// per input line, in input order, each a valid backend response.
func TestRouterBatchStreamsInOrder(t *testing.T) {
	a, b := startBackend(t, service.Config{}), startBackend(t, service.Config{})
	_, ts := newTestRouter(t, Config{Nodes: []string{a.url, b.url}})

	var in bytes.Buffer
	const n = 5
	for i := 0; i < n; i++ {
		in.Write(compileBody(t, service.Request{IR: tinyIRNamed(fmt.Sprintf("fn%d", i)), Scheme: "select"}))
		in.WriteByte('\n')
	}
	hr, err := http.Post(ts.URL+"/batch", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	dec := json.NewDecoder(hr.Body)
	for i := 0; i < n; i++ {
		var resp service.Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if resp.Error != "" {
			t.Fatalf("line %d: %s", i, resp.Error)
		}
		if want := fmt.Sprintf("fn%d", i); resp.Func != want {
			t.Fatalf("line %d is %q, want %q — stream out of order", i, resp.Func, want)
		}
	}
	if dec.More() {
		t.Fatal("extra lines after the batch")
	}
}

// TestRouterBatchReadsWhileAnswering: a client may send the next batch
// line only after it has read the answer to the last one; the router
// keeps reading the body after its first flushed answer.
func TestRouterBatchReadsWhileAnswering(t *testing.T) {
	a := startBackend(t, service.Config{})
	_, ts := newTestRouter(t, Config{Nodes: []string{a.url}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	first := append(compileBody(t, service.Request{IR: tinyIRNamed("fn0")}), '\n')
	second := append(compileBody(t, service.Request{IR: tinyIRNamed("fn1")}), '\n')
	answered := make(chan struct{})
	go func() {
		pw.Write(first)
		select {
		case <-answered:
		case <-ctx.Done():
		}
		pw.Write(second)
		pw.Close()
	}()
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	dec := json.NewDecoder(hr.Body)
	for i := 0; i < 2; i++ {
		var resp service.Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if want := fmt.Sprintf("fn%d", i); resp.Error != "" || resp.Func != want {
			t.Fatalf("line %d: %+v, want a compile of %s", i, resp, want)
		}
		if i == 0 {
			close(answered)
		}
	}
	if dec.More() {
		t.Fatal("extra lines after the batch")
	}
}

// TestRouterHedgedBatch: with the owner stalled past the hedge delay,
// the batch line is answered by the hedge request to the next ring
// node — the tail-latency defense the /batch path exists for.
func TestRouterHedgedBatch(t *testing.T) {
	a, b := startBackend(t, service.Config{}), startBackend(t, service.Config{})
	rt, ts := newTestRouter(t, Config{
		Nodes:      []string{a.url, b.url},
		HedgeAfter: 20 * time.Millisecond,
	})
	body := compileBody(t, service.Request{IR: tinyIR, Scheme: "select"})
	owner, fast := a, b
	if rt.ring.Owner(RouteKey(body)) == b.url {
		owner, fast = b, a
	}
	owner.delay.Store(int64(2 * time.Second))

	start := time.Now()
	hr, err := http.Post(ts.URL+"/batch", "application/x-ndjson", bytes.NewReader(append(body, '\n')))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp service.Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || resp.Func != "tiny" {
		t.Fatalf("hedged line: %+v", resp)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("hedge did not rescue the stalled owner (took %v)", took)
	}
	if got := rt.reg.Counter("router_hedges_total").Value(); got != 1 {
		t.Fatalf("router_hedges_total = %d, want 1", got)
	}
	if got := rt.reg.Counter("router_hedge_wins_total").Value(); got != 1 {
		t.Fatalf("router_hedge_wins_total = %d, want 1", got)
	}
	// The fast node (not the stalled owner) actually compiled it.
	if got := fast.reg.Counter("service_compiles_total").Value(); got != 1 {
		t.Fatalf("hedge target ran %d compiles, want 1", got)
	}
}

// TestRouterHealthGaugesAndRing: the health prober marks a dead node,
// candidates prefer healthy ones, the per-node gauges expose the
// verdicts, and /ring reports membership.
func TestRouterHealthGaugesAndRing(t *testing.T) {
	a, b := startBackend(t, service.Config{}), startBackend(t, service.Config{})
	rt, ts := newTestRouter(t, Config{Nodes: []string{a.url, b.url}})

	b.ts.Close()
	rt.probeAll()
	rt.refreshGauges()
	if v := rt.reg.GaugeL("router_node_healthy", "node", a.url).Value(); v != 1 {
		t.Fatalf("live node gauge = %d, want 1", v)
	}
	if v := rt.reg.GaugeL("router_node_healthy", "node", b.url).Value(); v != 0 {
		t.Fatalf("dead node gauge = %d, want 0", v)
	}
	// Whatever the ring says, the dead node must sort behind the live
	// one in the attempt order now.
	for _, k := range []string{"k1", "k2", "k3", "k4"} {
		if cands := rt.candidates(k); cands[0] != a.url {
			t.Fatalf("candidates(%s) = %v with %s known dead", k, cands, b.url)
		}
	}

	hr, err := http.Get(ts.URL + "/ring?key=abc")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var view struct {
		Nodes   []string        `json:"nodes"`
		Healthy map[string]bool `json:"healthy"`
		Order   []string        `json:"order"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if len(view.Nodes) != 2 || len(view.Order) != 2 {
		t.Fatalf("ring view %+v", view)
	}
	if view.Healthy[b.url] {
		t.Fatal("ring view reports the dead node healthy")
	}

	// Draining flips /healthz to 503 for the upstream LB.
	rt.SetDraining(true)
	gr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %s, want 503", gr.Status)
	}
}

// TestRouteKeyStability: the route key is semantic — JSON field order
// and TimeoutMs don't change it — while the flight key (raw bytes)
// does distinguish TimeoutMs variants.
func TestRouteKeyStability(t *testing.T) {
	b1 := []byte(`{"ir":` + mustJSON(tinyIR) + `,"scheme":"select"}`)
	b2 := []byte(`{"scheme":"select","ir":` + mustJSON(tinyIR) + `}`)
	if RouteKey(b1) != RouteKey(b2) {
		t.Fatal("route key depends on JSON field order")
	}
	b3 := []byte(`{"ir":` + mustJSON(tinyIR) + `,"scheme":"select","timeout_ms":5000}`)
	if RouteKey(b1) != RouteKey(b3) {
		t.Fatal("TimeoutMs changed the route key; cache locality lost")
	}
	if rawKey(b1) == rawKey(b3) {
		t.Fatal("raw flight key failed to distinguish TimeoutMs variants")
	}
	if k := RouteKey([]byte("{not json")); !strings.HasPrefix(k, "raw:") {
		t.Fatalf("malformed body should fall back to raw key, got %q", k)
	}
	if k := RouteKey([]byte(`{"ir":"func {","scheme":"select"}`)); !strings.HasPrefix(k, "raw:") {
		t.Fatalf("unparseable IR should fall back to raw key, got %q", k)
	}
	if k := RouteKey([]byte(`{"ir":` + mustJSON(tinyIR) + `,"alloc":"nonesuch"}`)); !strings.HasPrefix(k, "raw:") {
		t.Fatalf("unknown backend should fall back to raw key, got %q", k)
	}

	// Every backend choice routes under the key its owner caches it
	// under: a server with a disk tier files each compile as
	// key+".v1", and that key must be the body's route key.
	for _, scheme := range []string{"baseline", "remapping", "select", "ospill", "coalesce"} {
		for _, alloc := range []string{"", "irc", "ssa", "ospill", "auto"} {
			for _, mode := range []struct{ listing, explain bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
				body := compileBody(t, service.Request{IR: tinyIR, Scheme: scheme, Alloc: alloc, Listing: mode.listing, Explain: mode.explain})
				if got, want := cachedFiles(t, body), []string{RouteKey(body) + ".v1"}; !slices.Equal(got, want) {
					t.Errorf("%s/%q listing=%t explain=%t: the server cached %v, the router routes %v",
						scheme, alloc, mode.listing, mode.explain, got, want)
				}
			}
		}
	}
}

// cachedFiles compiles body on a fresh server with a disk tier and
// returns the names of the files it wrote there.
func cachedFiles(t *testing.T, body []byte) []string {
	t.Helper()
	dir := t.TempDir()
	srv, err := service.New(service.Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("compile: %d %s", rec.Code, rec.Body)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestRouterEmptyAllocIsPreferredBackend: a request without alloc and
// the same request naming its scheme's preferred backend are one
// compile to the fleet: both reach one node, which compiles once.
func TestRouterEmptyAllocIsPreferredBackend(t *testing.T) {
	a, b := startBackend(t, service.Config{}), startBackend(t, service.Config{})
	_, ts := newTestRouter(t, Config{Nodes: []string{a.url, b.url}})
	preferred := map[string]string{"baseline": "irc", "remapping": "irc", "select": "irc", "ospill": "ospill", "coalesce": "ospill"}
	compiles := func() int64 {
		return a.reg.Counter("service_compiles_total").Value() + b.reg.Counter("service_compiles_total").Value()
	}
	for scheme, alloc := range preferred {
		before := compiles()
		req := service.Request{IR: tinyIRNamed("f_" + scheme), Scheme: scheme}
		hr1, p1 := postRaw(t, ts.URL, compileBody(t, req))
		req.Alloc = alloc
		hr2, p2 := postRaw(t, ts.URL, compileBody(t, req))
		if hr1.StatusCode != http.StatusOK || hr2.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %s / %s\n%s\n%s", scheme, hr1.Status, hr2.Status, p1, p2)
		}
		if n1, n2 := hr1.Header.Get("X-Diffra-Backend"), hr2.Header.Get("X-Diffra-Backend"); n1 != n2 {
			t.Errorf("%s: no alloc routed to %s, alloc %q to %s", scheme, n1, alloc, n2)
		}
		if n := compiles() - before; n != 1 {
			t.Errorf("%s: the fleet compiled %d times, want 1", scheme, n)
		}
	}
}

// TestRouterBadBody: the router answers a body it cannot read as
// diffrad does: 413 naming the limit when the body is too large, 400
// for any other read error.
func TestRouterBadBody(t *testing.T) {
	rt, err := New(Config{Nodes: []string{"http://127.0.0.1:1"}, HealthInterval: -1, MaxRequestBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, tc := range []struct {
		name string
		body io.Reader
		code int
		want string
	}{
		{"too large", strings.NewReader(strings.Repeat("x", 65)), http.StatusRequestEntityTooLarge, "64-byte limit"},
		{"unreadable", iotest.ErrReader(errors.New("connection reset")), http.StatusBadRequest, "connection reset"},
	} {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", tc.body))
		if rec.Code != tc.code || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: %d %q, want %d naming %q", tc.name, rec.Code, rec.Body, tc.code, tc.want)
		}
	}
	if n := rt.reg.Counter("router_requests_total").Value(); n != 2 {
		t.Fatalf("router_requests_total = %d, want 2", n)
	}
}

func mustJSON(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
