package cluster

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"diffra"
	"diffra/internal/ir"
	"diffra/internal/service"
	"diffra/internal/telemetry"
)

// Router defaults; all overridable via Config.
const (
	defaultHealthInterval  = 2 * time.Second
	defaultUpstreamTimeout = 120 * time.Second
	defaultMaxRequestBytes = 8 << 20
	defaultHedgeMin        = 10 * time.Millisecond
	defaultHedgeMax        = 2 * time.Second
	defaultHedgeCold       = 100 * time.Millisecond // before any p95 exists
)

// Config parameterizes a Router.
type Config struct {
	// Nodes are the backend base URLs ("http://127.0.0.1:9001"), the
	// ring membership. Required, at least one.
	Nodes []string
	// Vnodes is the virtual-point count per node (0: DefaultVnodes).
	Vnodes int
	// Registry receives router metrics (nil: a fresh registry).
	Registry *telemetry.Registry
	// HealthInterval is the /healthz polling period (0: 2s; < 0
	// disables the poller — every node is then presumed healthy, which
	// is the deterministic choice for tests).
	HealthInterval time.Duration
	// HedgeAfter fixes the batch hedging delay. 0 derives it from the
	// live router_upstream_us p95, clamped to [HedgeMin, 2s]; < 0
	// disables hedging.
	HedgeAfter time.Duration
	// HedgeMin floors the derived hedging delay (0: 10ms).
	HedgeMin time.Duration
	// Timeout bounds each upstream request (0: 120s).
	Timeout time.Duration
	// MaxRequestBytes bounds a /compile body or one /batch line
	// (0: 8 MiB).
	MaxRequestBytes int64
	// Client issues upstream requests (nil: a dedicated client with
	// Timeout applied per-request via context).
	Client *http.Client
}

// Router is the cluster front tier: an HTTP server that routes
// /compile and /batch to diffrad backends by consistent-hashing the
// compile's cache key, collapses identical in-flight compiles into one
// upstream call, fails over to ring successors when a node is down,
// and hedges slow batch lines against the next node.
//
// The router holds no compile state of its own — byte payloads pass
// through untouched, so responses are exactly what a backend produced
// (the determinism proof in the tests depends on this).
type Router struct {
	cfg    Config
	ring   *Ring
	reg    *telemetry.Registry
	client *http.Client
	group  Group

	healthMu sync.RWMutex
	healthy  map[string]bool

	draining atomic.Bool
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New validates cfg and starts the health poller (unless disabled).
// Callers must Close the router to stop the poller.
func New(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no backend nodes configured")
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = defaultHealthInterval
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = defaultUpstreamTimeout
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = defaultMaxRequestBytes
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = defaultHedgeMin
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	rt := &Router{
		cfg:     cfg,
		ring:    NewRing(cfg.Vnodes, cfg.Nodes...),
		reg:     cfg.Registry,
		client:  cfg.Client,
		healthy: make(map[string]bool, len(cfg.Nodes)),
		stop:    make(chan struct{}),
	}
	for _, n := range rt.ring.Nodes() {
		rt.healthy[n] = true // optimistic until the first poll says otherwise
	}
	rt.group.Shared = rt.reg.Counter("router_singleflight_shared_total").Inc
	if cfg.HealthInterval > 0 {
		rt.wg.Add(1)
		go rt.pollHealth()
	}
	return rt, nil
}

// Close stops the health poller. The Handler keeps serving; stop the
// enclosing http.Server to stop traffic.
func (rt *Router) Close() {
	select {
	case <-rt.stop:
	default:
		close(rt.stop)
	}
	rt.wg.Wait()
}

// SetDraining flips /healthz to 503 so load balancers stop sending new
// work while in-flight requests finish (mirrors diffrad's drain).
func (rt *Router) SetDraining(v bool) { rt.draining.Store(v) }

// Handler returns the router's HTTP surface: /compile and /batch
// (proxied), /healthz, /metrics, and GET /ring (debug: the membership
// and where a ?key= would land).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", rt.handleCompile)
	mux.HandleFunc("POST /batch", rt.handleBatch)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.Handle("GET /metrics", telemetry.MetricsHandler(rt.reg, rt.refreshGauges))
	mux.HandleFunc("GET /ring", rt.handleRing)
	return mux
}

// RouteKey derives the routing key for a raw /compile request body:
// the same content-addressed service.CacheKey the backends cache
// under, so a key always routes to the node that has it. Bodies that
// fail to decode, parse, or resolve hash as raw bytes instead — the
// owner backend then reports the error, and identical broken requests
// still dedupe.
func RouteKey(body []byte) string {
	req, err := service.DecodeRequest(body)
	if err != nil {
		return rawKey(body)
	}
	opts, err := diffra.Options{
		Scheme:   diffra.Scheme(req.Scheme),
		RegN:     req.RegN,
		DiffN:    req.DiffN,
		Restarts: req.Restarts,
	}.Resolved()
	if err != nil {
		return rawKey(body)
	}
	f, err := ir.Parse(req.IR)
	if err != nil {
		return rawKey(body)
	}
	return service.CacheKey(f, opts, req.Listing, req.Explain)
}

func rawKey(body []byte) string {
	sum := sha256.Sum256(body)
	return "raw:" + hex.EncodeToString(sum[:])
}

// candidates returns the failover order for key: the ring successor
// list with currently-healthy nodes first (relative order preserved
// within each class). The owner is always included — if the whole
// fleet looks down we still try it rather than failing without an
// attempt.
func (rt *Router) candidates(key string) []string {
	succ := rt.ring.Successors(key, len(rt.ring.Nodes()))
	rt.healthMu.RLock()
	defer rt.healthMu.RUnlock()
	sort.SliceStable(succ, func(i, j int) bool {
		return rt.healthy[succ[i]] && !rt.healthy[succ[j]]
	})
	return succ
}

// forward POSTs body to node+path under the upstream timeout and
// returns the full payload. Transport and read failures return err;
// any HTTP status (including 429/5xx) returns normally — status
// policy belongs to the caller.
func (rt *Router) forward(ctx context.Context, node, path string, body []byte) (payload []byte, status int, header http.Header, err error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	payload, err = io.ReadAll(resp.Body)
	rt.reg.Histogram("router_upstream_us").Observe(time.Since(start).Microseconds())
	if err != nil {
		return nil, 0, nil, err
	}
	return payload, resp.StatusCode, resp.Header, nil
}

// passthroughHeaders are the upstream response headers a proxied reply
// keeps.
var passthroughHeaders = []string{"Content-Type", "X-Diffra-Node", "Retry-After"}

// compileUpstream runs one routed compile attempt chain: the owner
// first, then ring successors on transport failure. HTTP-level errors
// (429 shed, 422 bad IR, ...) are authoritative answers from the
// owner, not failover triggers. The chosen node lands in the
// X-Diffra-Backend header.
func (rt *Router) compileUpstream(ctx context.Context, key string, body []byte) ([]byte, int, map[string]string, error) {
	var lastErr error
	for i, node := range rt.candidates(key) {
		if i > 0 {
			rt.reg.Counter("router_failovers_total").Inc()
		}
		payload, status, hdr, err := rt.forward(ctx, node, "/compile", body)
		if err != nil {
			lastErr = err
			rt.reg.CounterL("router_upstream_errors_total", "node", node).Inc()
			if ctx.Err() != nil {
				return nil, 0, nil, ctx.Err()
			}
			continue
		}
		out := map[string]string{"X-Diffra-Backend": node}
		for _, h := range passthroughHeaders {
			if v := hdr.Get(h); v != "" {
				out[h] = v
			}
		}
		return payload, status, out, nil
	}
	return nil, 0, nil, fmt.Errorf("cluster: all %d backends failed for key %.12s…: %w",
		len(rt.ring.Nodes()), key, lastErr)
}

func (rt *Router) handleCompile(w http.ResponseWriter, r *http.Request) {
	rt.reg.Counter("router_requests_total").Inc()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxRequestBytes))
	if err != nil {
		http.Error(w, "request too large or unreadable", http.StatusRequestEntityTooLarge)
		return
	}
	key := RouteKey(body)

	// The flight key is the raw body hash, not the route key: requests
	// differing only in non-semantic fields (TimeoutMs) share a cache
	// entry but must not share a flight, or one caller's short deadline
	// would answer another's long one.
	payload, status, hdr, shared, err := rt.group.Do(r.Context(), rawKey(body),
		func(ctx context.Context) ([]byte, int, map[string]string, error) {
			return rt.compileUpstream(ctx, key, body)
		})
	if err != nil {
		if r.Context().Err() != nil {
			// Client went away; nothing useful to write.
			return
		}
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	for k, v := range hdr {
		w.Header().Set(k, v)
	}
	if shared {
		w.Header().Set("X-Diffra-Singleflight", "shared")
	}
	w.WriteHeader(status)
	w.Write(payload)
}

// hedgeDelay is how long a batch line waits on the owner before a
// second request races it on the next ring node: the configured fixed
// delay, or the live upstream p95 clamped to [HedgeMin, 2s] (100ms
// until a p95 exists).
func (rt *Router) hedgeDelay() time.Duration {
	if rt.cfg.HedgeAfter != 0 {
		return rt.cfg.HedgeAfter
	}
	p95 := time.Duration(rt.reg.Histogram("router_upstream_us").Snapshot().P95) * time.Microsecond
	if p95 <= 0 {
		return defaultHedgeCold
	}
	if p95 < rt.cfg.HedgeMin {
		return rt.cfg.HedgeMin
	}
	if p95 > defaultHedgeMax {
		return defaultHedgeMax
	}
	return p95
}

type hedgeReply struct {
	payload []byte
	status  int
	hdr     map[string]string
	err     error
	node    string
	hedged  bool
}

// compileHedged issues the line to the owner chain and, if no reply
// arrives within hedgeDelay, races a second attempt starting at the
// next distinct ring node. First success wins; the loser's context is
// cancelled. Used by /batch, where one slow node would otherwise set
// the whole stream's tail latency.
func (rt *Router) compileHedged(ctx context.Context, key string, body []byte) hedgeReply {
	cands := rt.candidates(key)
	delay := rt.hedgeDelay()
	if len(cands) < 2 || delay < 0 {
		p, s, h, err := rt.compileUpstream(ctx, key, body)
		return hedgeReply{payload: p, status: s, hdr: h, err: err}
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the loser once a winner is chosen
	replies := make(chan hedgeReply, 2)
	attempt := func(node string, hedged bool) {
		payload, status, hdr, err := rt.forward(hctx, node, "/compile", body)
		if err == nil && hdr != nil {
			out := map[string]string{"X-Diffra-Backend": node}
			for _, h := range passthroughHeaders {
				if v := hdr.Get(h); v != "" {
					out[h] = v
				}
			}
			replies <- hedgeReply{payload: payload, status: status, hdr: out, node: node, hedged: hedged}
			return
		}
		replies <- hedgeReply{err: err, node: node, hedged: hedged}
	}

	go attempt(cands[0], false)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	inFlight := 1
	for {
		select {
		case <-timer.C:
			if inFlight == 1 {
				rt.reg.Counter("router_hedges_total").Inc()
				go attempt(cands[1], true)
				inFlight++
			}
		case r := <-replies:
			inFlight--
			if r.err == nil {
				if r.hedged {
					rt.reg.Counter("router_hedge_wins_total").Inc()
				}
				return r
			}
			// This attempt failed; if the other is still running let it
			// finish, otherwise fall back to the sequential chain which
			// walks every successor.
			if inFlight > 0 {
				continue
			}
			if ctx.Err() != nil {
				return hedgeReply{err: ctx.Err()}
			}
			p, s, h, err := rt.compileUpstream(ctx, key, body)
			return hedgeReply{payload: p, status: s, hdr: h, err: err}
		case <-ctx.Done():
			return hedgeReply{err: ctx.Err()}
		}
	}
}

// handleBatch streams an NDJSON request body line by line: each line
// routes independently on its own cache key (hedged), and the
// responses stream back in input order — the contract matching
// diffrad's own /batch.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	rt.reg.Counter("router_batches_total").Inc()
	// Without full duplex an HTTP/1 server discards the unread body at
	// the first flushed answer (see service's handleBatch).
	http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	sc := bufio.NewScanner(r.Body)
	buf := int(rt.cfg.MaxRequestBytes)
	sc.Buffer(make([]byte, 64<<10), buf)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rt.reg.Counter("router_requests_total").Inc()
		body := append([]byte(nil), line...) // scanner reuses its buffer
		rep := rt.compileHedged(r.Context(), RouteKey(body), body)
		if rep.err != nil {
			if r.Context().Err() != nil {
				return
			}
			errLine, _ := json.Marshal(service.Response{Error: "cluster: " + rep.err.Error()})
			w.Write(append(errLine, '\n'))
		} else {
			payload := bytes.TrimRight(rep.payload, "\n")
			w.Write(append(payload, '\n'))
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	// A scan error midway (line over MaxRequestBytes, client hang-up)
	// simply truncates the stream, matching the backend's behavior.
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

// handleRing reports membership and (with ?key=) where a key routes —
// the debugging view for "why did this land there".
func (rt *Router) handleRing(w http.ResponseWriter, r *http.Request) {
	type view struct {
		Nodes   []string        `json:"nodes"`
		Healthy map[string]bool `json:"healthy"`
		Key     string          `json:"key,omitempty"`
		Order   []string        `json:"order,omitempty"`
	}
	v := view{Nodes: rt.ring.Nodes(), Healthy: map[string]bool{}}
	rt.healthMu.RLock()
	for n, ok := range rt.healthy {
		v.Healthy[n] = ok
	}
	rt.healthMu.RUnlock()
	if key := r.URL.Query().Get("key"); key != "" {
		v.Key = key
		v.Order = rt.ring.Successors(key, len(v.Nodes))
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// pollHealth probes every node's /healthz each interval and records
// the verdict for candidate ordering and the per-node gauges.
func (rt *Router) pollHealth() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	rt.probeAll()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	for _, node := range rt.ring.Nodes() {
		healthy := rt.probe(node)
		rt.healthMu.Lock()
		rt.healthy[node] = healthy
		rt.healthMu.Unlock()
	}
}

func (rt *Router) probe(node string) bool {
	timeout := rt.cfg.HealthInterval
	if timeout <= 0 {
		timeout = defaultHealthInterval
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// refreshGauges publishes per-node health on every /metrics scrape.
func (rt *Router) refreshGauges() {
	rt.healthMu.RLock()
	defer rt.healthMu.RUnlock()
	for node, ok := range rt.healthy {
		v := int64(0)
		if ok {
			v = 1
		}
		rt.reg.GaugeL("router_node_healthy", "node", node).Set(v)
	}
}
