// Package service turns the diffra compiler into a
// compilation-as-a-service subsystem: a bounded worker pool sized to
// GOMAXPROCS, a content-addressed LRU cache over compile results, and
// an HTTP front end (cmd/diffrad) accepting single JSON requests and a
// streaming NDJSON batch mode. Per-request deadlines and client
// cancellation propagate through diffra.CompileFuncContext into the
// long-running searches (the optimal-spill ILP above all), so an
// abandoned request stops burning CPU instead of leaking a goroutine.
package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"diffra"
	"diffra/internal/diffenc"
	"diffra/internal/difftest"
	"diffra/internal/ir"
	"diffra/internal/scratch"
	"diffra/internal/telemetry"
)

// Request is one compilation job. Zero-valued fields take the facade
// defaults (scheme select, RegN 12, DiffN min(8, RegN), 1000
// restarts, the server's default timeout).
type Request struct {
	// IR is the function in the textual format of internal/ir.Parse.
	IR string `json:"ir"`
	// Scheme is baseline|remapping|select|ospill|coalesce.
	Scheme string `json:"scheme,omitempty"`
	// RegN / DiffN / Restarts mirror diffra.Options.
	RegN     int `json:"regn,omitempty"`
	DiffN    int `json:"diffn,omitempty"`
	Restarts int `json:"restarts,omitempty"`
	// Alloc selects the allocation backend: auto|irc|ssa|ospill, or
	// empty for the server's configured default (Config.Alloc, falling
	// back to the scheme's preferred backend). "auto" steps down to
	// cheaper backends as the request deadline nears; the resolved
	// choice comes back in Response.AllocBackend and the X-Diffra-Alloc
	// header.
	Alloc string `json:"alloc,omitempty"`
	// TimeoutMs bounds this request's compile time; 0 uses the server
	// default. The deadline also covers time spent queued for a worker.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Listing asks for the decoder's-eye encoded listing (differential
	// schemes only).
	Listing bool `json:"listing,omitempty"`
	// Explain asks for the set_last_reg attribution report.
	Explain bool `json:"explain,omitempty"`
}

// Response is the outcome of one Request. Error is set (and the other
// fields zero) when the compilation failed or timed out.
type Response struct {
	Func   string `json:"func,omitempty"`
	Scheme string `json:"scheme,omitempty"`
	RegN   int    `json:"regn,omitempty"`
	DiffN  int    `json:"diffn,omitempty"`
	// Static costs over the final code.
	Instrs         int `json:"instrs,omitempty"`
	SpillInstrs    int `json:"spill_instrs,omitempty"`
	SetLastRegs    int `json:"set_last_regs,omitempty"`
	RangeSets      int `json:"range_sets,omitempty"`
	JoinSets       int `json:"join_sets,omitempty"`
	SpilledVRegs   int `json:"spilled_vregs,omitempty"`
	CoalescedMoves int `json:"coalesced_moves,omitempty"`
	// Field widths of this geometry: direct encoding needs RegW bits
	// per operand field, differential DiffW.
	RegW  int `json:"regw,omitempty"`
	DiffW int `json:"diffw,omitempty"`
	// Listing / Explain are filled when requested.
	Listing string `json:"listing,omitempty"`
	Explain string `json:"explain,omitempty"`
	// Cached reports that the response was served from the
	// content-addressed cache without recompiling.
	Cached bool `json:"cached,omitempty"`
	// AllocBackend is the allocation backend that produced this result
	// — the resolved choice when the request asked for "auto".
	AllocBackend string `json:"alloc_backend,omitempty"`
	// Error is the compile error, "" on success. Timeouts and
	// cancellations mention the context error text.
	Error string `json:"error,omitempty"`
	// Timeout distinguishes deadline/cancellation failures from
	// semantic compile errors.
	Timeout bool `json:"timeout,omitempty"`
	// TimeoutPhase / TimeoutBackend report which compile phase and
	// which allocation backend were running when the deadline fired
	// (empty for non-timeout failures and for timeouts that never
	// reached the compiler, e.g. queued past deadline) — the data that
	// makes auto-policy misses diagnosable.
	TimeoutPhase   string `json:"timeout_phase,omitempty"`
	TimeoutBackend string `json:"timeout_backend,omitempty"`
	// Shed reports admission-control rejection: the worker queue was
	// full (Config.MaxQueue) and the request was turned away without
	// compiling. The HTTP layer maps it to 429 with a Retry-After
	// header; RetryAfterMs carries the same hint for NDJSON batch
	// lines, which have no per-line headers.
	Shed         bool `json:"shed,omitempty"`
	RetryAfterMs int  `json:"retry_after_ms,omitempty"`
}

// Config parameterizes a Server. The zero value is usable.
type Config struct {
	// Workers bounds concurrent compilations (<= 0: GOMAXPROCS).
	Workers int
	// CacheEntries bounds the in-memory result cache and the source
	// texts remembered for it (0: 1024; negative: memory tier and
	// source aliases disabled).
	CacheEntries int
	// CacheDir, when non-empty, enables the persistent disk tier under
	// the in-memory LRU: compile results survive restarts, keyed by
	// CacheKey under cache.SchemaVersion. Damaged or truncated entries
	// are misses, never errors (service_disk_cache_corrupt counts
	// them).
	CacheDir string
	// CacheDiskBytes bounds the disk tier's entry bytes (0: 256 MiB).
	CacheDiskBytes int64
	// MaxQueue bounds the requests waiting for a worker slot. Once the
	// pool is saturated and MaxQueue requests are queued, new arrivals
	// are shed: Response.Shed is set, the HTTP layer answers 429 with
	// a Retry-After derived from observed compile latency, and
	// service_load_shed_total counts the rejection. 0: unbounded (the
	// pre-admission-control behaviour — queued requests wait until
	// their deadline).
	MaxQueue int
	// NodeID names this process in a fleet; the HTTP layer echoes it
	// as the X-Diffra-Node response header so cluster tests and the
	// router can attribute responses to backends, and /metrics gains a
	// service_node_info{node=...} gauge for dashboards. Empty: no
	// header, no gauge.
	NodeID string
	// MaxRequestBytes bounds a request body and the IR source inside
	// it (0: 1 MiB).
	MaxRequestBytes int64
	// DefaultTimeout bounds requests that do not set TimeoutMs
	// (0: 30s).
	DefaultTimeout time.Duration
	// Alloc is the allocation backend for requests that do not set
	// their own: auto|irc|ssa|ospill, or empty to let each scheme use
	// its preferred backend (the pre-portfolio behaviour).
	Alloc string
	// RemapWorkers bounds the parallelism of each compile's remapping
	// search (diffra.Options.RemapWorkers). 0 keeps it serial: the pool
	// already runs one compile per core, so intra-compile parallelism
	// only helps when the server is otherwise idle. The remap result is
	// bit-identical at any setting, so it is excluded from cache keys.
	RemapWorkers int
	// SpillWorkers bounds the parallelism of each compile's spill ILP
	// solve (diffra.Options.SpillWorkers) for the ospill and coalesce
	// schemes. 0 keeps it serial, like RemapWorkers, and for the same
	// reason; the spill set is bit-identical at any setting, so it is
	// excluded from cache keys.
	SpillWorkers int
	// Registry receives the service metrics and, while capture is on,
	// the compile metrics the span→metrics bridge folds from each
	// compile's span tree (nil: a fresh registry of the server's own;
	// Server.Registry returns it).
	Registry *telemetry.Registry
	// SelfCheck enables shadow oracling: every Nth successful compile
	// is re-run through the differential-testing oracle — reference
	// interpretation of the source versus the allocated program run
	// directly and through both stream-decode models, on a
	// deterministic input (difftest.DefaultSpec). Outcomes land in the
	// service_selfcheck_runs / service_selfcheck_divergences counters;
	// the response is not altered. 0 disables, 1 checks every compile,
	// N samples one in N.
	SelfCheck int
	// TraceBuffer bounds the always-on request trace capture: every
	// compile runs under a span tracer, the finished tree is folded
	// into per-stage latency histograms (diffra_stage_us{stage,scheme})
	// and the diffra_span_* compile and solver counters, and the
	// request's TraceRecord is retained in a ring served by GET
	// /debug/traces. 0 keeps the last 256 requests; negative disables
	// capture entirely: no per-request tracer and no trace endpoint
	// data, and because the bridge is the only writer of compile
	// metrics, the registry holds service_* series only. Only
	// diffrad's -trace-buffer flag sets it negative; the
	// instrumentation-overhead benchmark's plain lane is
	// diffra.CompileFunc with a nil Telemetry, not a Server.
	TraceBuffer int
	// AccessLog, when non-nil, receives one NDJSON record per request:
	// request id, function, scheme, cache hit, queue wait, total time,
	// per-stage timings and the outcome. Writes are serialized.
	AccessLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.MaxRequestBytes == 0 {
		c.MaxRequestBytes = 1 << 20
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = 256
	}
	return c
}

// Server is the compilation service: pool + cache + metrics. It is
// safe for concurrent use; the HTTP layer in http.go is one front end,
// Compile is the in-process one.
type Server struct {
	cfg       Config
	pool      *Pool
	cache     *resultCache
	reg       *telemetry.Registry
	inflight  atomic.Int64
	queued    atomic.Int64
	checkTick atomic.Int64

	started  time.Time
	draining atomic.Bool
	// nodeHeader is the shared X-Diffra-Node value (nil: no NodeID).
	nodeHeader []string
	traces     *traceBuffer // nil: capture disabled
	bridge     *telemetry.MetricsSink

	// workers is a free list of per-worker compile state, sized to the
	// pool: a compile checks one out for its duration (so at most
	// Workers() are ever live at once) and returns it reset. Steady
	// state, every compile runs on a warmed arena and the allocator/
	// encoder hot loops allocate nothing.
	workers chan *worker
	// allocBackend keeps each backend's service_alloc_backend_total
	// counter from its first compile on, so a compile builds no
	// labeled name.
	allocBackend [len(backends)]atomic.Pointer[telemetry.Counter]

	accessMu    sync.Mutex
	accessBuf   *bufio.Writer
	accessEnc   *json.Encoder
	accessFlush time.Time
}

// accessFlushEvery bounds how stale the buffered access log may run:
// a write more than this long after the last flush flushes. Shutdown
// flushes unconditionally, so a drained server never loses lines.
const accessFlushEvery = time.Second

// New builds a Server. It fails only when the configured disk cache
// directory cannot be opened.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	rc, err := newResultCache(cfg.CacheEntries, cfg.CacheDir, cfg.CacheDiskBytes, cfg.Registry)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		pool:    NewPool(cfg.Workers),
		cache:   rc,
		reg:     cfg.Registry,
		started: time.Now(),
	}
	s.workers = make(chan *worker, s.pool.Workers())
	if cfg.TraceBuffer > 0 {
		s.traces = newTraceBuffer(cfg.TraceBuffer, traceSlowKeep, traceErrKeep)
		s.bridge = &telemetry.MetricsSink{Reg: s.reg}
	}
	if cfg.AccessLog != nil {
		s.accessBuf = bufio.NewWriterSize(cfg.AccessLog, 64<<10)
		s.accessEnc = json.NewEncoder(s.accessBuf)
	}
	s.reg.Gauge("service_start_time_unix").Set(s.started.Unix())
	if cfg.NodeID != "" {
		s.reg.GaugeL("service_node_info", "node", cfg.NodeID).Set(1)
		s.nodeHeader = []string{cfg.NodeID}
	}
	return s, nil
}

// SetDraining flips the server's lifecycle state; once draining the
// health endpoint answers 503 so load balancers stop routing here
// while in-flight requests finish. HTTPServer.Shutdown sets it.
func (s *Server) SetDraining(v bool) {
	s.draining.Store(v)
	g := int64(0)
	if v {
		g = 1
	}
	s.reg.Gauge("service_draining").Set(g)
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Traces returns every retained request trace, newest first (nil when
// capture is disabled).
func (s *Server) Traces() []*TraceRecord {
	if s.traces == nil {
		return nil
	}
	return s.traces.snapshot()
}

// Trace returns one retained request trace by id, or nil.
func (s *Server) Trace(id int64) *TraceRecord {
	if s.traces == nil {
		return nil
	}
	return s.traces.get(id)
}

// Pool exposes the server's admission semaphore and its concurrency
// bound.
func (s *Server) Pool() *Pool { return s.pool }

// Registry exposes the metrics registry the server records into.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// shedResponse builds the admission-control rejection, with a
// Retry-After hint derived from the live state: the current backlog
// times the observed median compile time, spread over the worker
// pool, clamped to [1s, 60s]. Before any compile has been observed
// the hint is the 1s floor.
func (s *Server) shedResponse() Response {
	retry := time.Second
	if snap := s.reg.Histogram("service_compile_us").Snapshot(); snap.Count > 0 {
		backlog := s.queued.Load() + 1
		est := time.Duration(snap.P50*float64(backlog)/float64(s.pool.Workers())) * time.Microsecond
		if est > retry {
			retry = est
		}
	}
	if retry > time.Minute {
		retry = time.Minute
	}
	return Response{
		Error:        "service: overloaded, worker queue full",
		Shed:         true,
		RetryAfterMs: int(retry / time.Millisecond),
	}
}

func errResponse(err error) Response {
	r := Response{Error: err.Error()}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		r.Timeout = true
	}
	// The facade tags deadline errors with the phase and backend that
	// were running; surface them so a timeout is diagnosable ("the
	// remap search ate the budget" vs "even allocation did not fit").
	var pe *diffra.PhaseError
	if errors.As(err, &pe) {
		r.TimeoutPhase = pe.Phase
		r.TimeoutBackend = string(pe.Backend)
	}
	return r
}

// Compile serves one request: validate, consult the cache, then
// compile on a pool slot under the request deadline. It never panics
// on malformed input — every failure is a Response with Error set.
// Every request leaves a TraceRecord in the capture ring and one
// access-log line (when configured), whatever its outcome.
func (s *Server) Compile(ctx context.Context, req Request) Response {
	s.reg.Counter("service_requests").Inc()
	rec := &TraceRecord{Start: time.Now(), Scheme: req.Scheme, RegN: req.RegN, DiffN: req.DiffN}
	resp := s.compileCached(ctx, req, rec)
	rec.DurUS = time.Since(rec.Start).Microseconds()
	if resp.Func != "" {
		rec.Func = resp.Func
	}
	if resp.Scheme != "" {
		rec.Scheme, rec.RegN, rec.DiffN = resp.Scheme, resp.RegN, resp.DiffN
	}
	rec.Cached = resp.Cached
	rec.Alloc = resp.AllocBackend
	rec.Error, rec.Timeout, rec.Shed = resp.Error, resp.Timeout, resp.Shed
	rec.TimeoutPhase, rec.TimeoutBackend = resp.TimeoutPhase, resp.TimeoutBackend
	if resp.Error != "" {
		switch {
		case resp.Shed:
			// Counted at the admission decision (service_load_shed_total);
			// a shed is neither a compile error nor a timeout.
		case resp.Timeout:
			s.reg.Counter("service_timeouts").Inc()
		default:
			s.reg.Counter("service_errors").Inc()
		}
	}
	if s.traces != nil {
		s.traces.add(rec)
	}
	s.logAccess(rec)
	return resp
}

// logAccess appends the request's NDJSON access record, including the
// top-level stage timings from the captured span tree when present.
func (s *Server) logAccess(rec *TraceRecord) {
	if s.accessEnc == nil {
		return
	}
	type accessRecord struct {
		TS      string           `json:"ts"`
		ID      int64            `json:"id,omitempty"`
		Func    string           `json:"func,omitempty"`
		Scheme  string           `json:"scheme,omitempty"`
		RegN    int              `json:"regn,omitempty"`
		DiffN   int              `json:"diffn,omitempty"`
		Cached  bool             `json:"cached"`
		QueueUS int64            `json:"queue_us"`
		DurUS   int64            `json:"dur_us"`
		Stages  map[string]int64 `json:"stages_us,omitempty"`
		Error   string           `json:"error,omitempty"`
		Timeout bool             `json:"timeout,omitempty"`
		Shed    bool             `json:"shed,omitempty"`
	}
	ar := accessRecord{
		TS:      rec.Start.UTC().Format(time.RFC3339Nano),
		ID:      rec.ID,
		Func:    rec.Func,
		Scheme:  rec.Scheme,
		RegN:    rec.RegN,
		DiffN:   rec.DiffN,
		Cached:  rec.Cached,
		QueueUS: rec.QueueUS,
		DurUS:   rec.DurUS,
		Error:   rec.Error,
		Timeout: rec.Timeout,
		Shed:    rec.Shed,
	}
	if rec.root != nil {
		ar.Stages = make(map[string]int64, len(rec.root.Children))
		for _, c := range rec.root.Children {
			ar.Stages[telemetry.NormalizeStage(c.Name)] += c.Dur.Microseconds()
		}
	}
	s.accessMu.Lock()
	s.accessEnc.Encode(ar)
	// The encoder writes into a buffer so a hot server does one syscall
	// per 64 KiB, not per request; bound the staleness a tailing reader
	// sees. Shutdown calls FlushAccessLog for the final lines.
	if now := time.Now(); now.Sub(s.accessFlush) >= accessFlushEvery {
		s.accessBuf.Flush()
		s.accessFlush = now
	}
	s.accessMu.Unlock()
}

// FlushAccessLog forces any buffered access-log lines to the
// configured writer. HTTPServer.Shutdown calls it after the drain, so
// a SIGTERM'd daemon loses no request lines; tests and embedders that
// read the log mid-flight call it directly.
func (s *Server) FlushAccessLog() error {
	if s.accessBuf == nil {
		return nil
	}
	s.accessMu.Lock()
	defer s.accessMu.Unlock()
	return s.accessBuf.Flush()
}

func (s *Server) compileCached(ctx context.Context, req Request, rec *TraceRecord) Response {
	if int64(len(req.IR)) > s.cfg.MaxRequestBytes {
		return errResponse(fmt.Errorf("service: ir source %d bytes exceeds limit %d", len(req.IR), s.cfg.MaxRequestBytes))
	}
	opts, err := s.options(req)
	if err != nil {
		return errResponse(err)
	}
	// A text seen before names its canonical key through its source
	// key, so a repeat is answered without parsing or keying it. An
	// alias whose entry has since been evicted still spares the key.
	src := sourceKey(req.IR, opts, req.Listing, req.Explain)
	key, aliased := s.cache.canonical(src)
	if aliased {
		if resp, ok := s.cache.get(key); ok {
			return s.cacheHit(resp)
		}
	}
	f, err := ir.Parse(req.IR)
	if err != nil {
		return errResponse(err)
	}
	if !aliased {
		key = CacheKey(f, opts, req.Listing, req.Explain)
		if resp, ok := s.cache.get(key); ok {
			// The alias is written on the second sight of a text, never
			// on a miss, so texts that never repeat cost no memory.
			s.cache.alias(src, key)
			return s.cacheHit(resp)
		}
	}
	s.reg.Counter("service_cache_misses").Inc()

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	// Admission control: once MaxQueue requests are already waiting
	// for a worker slot, shed instead of queueing. A loaded server
	// answering 429 in microseconds beats one answering 504 after the
	// client's whole deadline — and tells the router/client when to
	// retry. (The check-then-add window can overshoot by a few
	// requests under a stampede; the bound is a shed policy, not an
	// invariant.)
	if max := s.cfg.MaxQueue; max > 0 && s.queued.Load() >= int64(max) {
		s.reg.Counter("service_load_shed_total").Inc()
		return s.shedResponse()
	}

	var resp Response
	s.reg.Gauge("service_inflight").Set(s.inflight.Add(1))
	defer func() { s.reg.Gauge("service_inflight").Set(s.inflight.Add(-1)) }()
	s.queued.Add(1)
	dequeued := false
	started := time.Now()
	err = s.pool.Do(ctx, func() {
		s.queued.Add(-1)
		dequeued = true
		rec.QueueUS = time.Since(started).Microseconds()
		s.reg.Histogram("service_queue_wait_us").Observe(rec.QueueUS)
		resp = s.compile(ctx, f, opts, req, rec)
	})
	s.reg.Histogram("service_compile_us").Observe(time.Since(started).Microseconds())
	if err != nil {
		// The deadline fired while the request was still queued.
		if !dequeued {
			s.queued.Add(-1)
		}
		rec.QueueUS = time.Since(started).Microseconds()
		return errResponse(fmt.Errorf("service: queued past deadline: %w", err))
	}
	if resp.Error == "" {
		s.cache.put(key, resp)
		s.reg.Gauge("service_cache_entries").Set(int64(s.cache.len()))
	}
	return resp
}

// options resolves a request's compile options against the server's
// defaults.
func (s *Server) options(req Request) (diffra.Options, error) {
	alloc := req.Alloc
	if alloc == "" {
		alloc = s.cfg.Alloc
	}
	opts, err := diffra.Options{
		Scheme:   diffra.Scheme(req.Scheme),
		Alloc:    diffra.Backend(alloc),
		RegN:     req.RegN,
		DiffN:    req.DiffN,
		Restarts: req.Restarts,
	}.Resolved()
	if err != nil {
		return opts, err
	}
	// After Resolved: RemapWorkers and SpillWorkers never alter the
	// compile result, so they must not influence the resolved options a
	// cache key hashes.
	opts.RemapWorkers = s.cfg.RemapWorkers
	if opts.RemapWorkers <= 0 {
		opts.RemapWorkers = 1
	}
	opts.SpillWorkers = s.cfg.SpillWorkers
	if opts.SpillWorkers <= 0 {
		opts.SpillWorkers = 1
	}
	return opts, nil
}

// cacheHit counts a hit in either tier and marks its response.
func (s *Server) cacheHit(resp Response) Response {
	s.reg.Counter("service_cache_hits").Inc()
	resp.Cached = true
	return resp
}

// compile runs the facade under ctx and renders the response. When
// capture is on, the compile runs under its worker's tracer, whose
// finished tree both lands on the request's TraceRecord and folds into
// the registry's per-stage metrics through the span→metrics bridge —
// the same breakdown tracing would show, with tracing never configured.
func (s *Server) compile(ctx context.Context, f *ir.Func, opts diffra.Options, req Request, rec *TraceRecord) Response {
	// Counts actual backend compile executions — cache hits and shed
	// requests never reach here. The cluster's singleflight dedup
	// proof pins this counter: N identical concurrent requests through
	// the router must move it by exactly 1 fleet-wide.
	s.reg.Counter("service_compiles_total").Inc()
	// Check a worker's state out of the free list for the compile's
	// duration; first use on a cold slot mints one. The arena is reset
	// before it goes back so a request never observes another request's
	// data, and because compile() always holds a pool slot, at most
	// Workers() exist.
	var w *worker
	select {
	case w = <-s.workers:
	default:
		w = s.newWorker()
	}
	opts.Scratch = &w.arena
	opts.Telemetry = w.tracer
	defer func() {
		rec.root, w.root = w.root, nil
		w.arena.Reset()
		select {
		case s.workers <- w:
		default:
		}
	}()
	res, err := diffra.CompileFuncContext(ctx, f, opts)
	if err != nil {
		return errResponse(err)
	}
	if s.selfCheck(f, res) {
		rec.Diverged = true
	}
	regW, diffW := diffra.FieldWidths(opts.RegN, opts.DiffN)
	resp := Response{
		Func:           res.F.Name,
		Scheme:         string(opts.Scheme),
		RegN:           opts.RegN,
		DiffN:          opts.DiffN,
		Instrs:         res.Instrs,
		SpillInstrs:    res.SpillInstrs,
		SetLastRegs:    res.SetLastRegs,
		SpilledVRegs:   res.Assignment.SpilledVRegs,
		CoalescedMoves: res.Assignment.CoalescedMoves,
		RegW:           regW,
		DiffW:          diffW,
		AllocBackend:   string(res.AllocBackend),
	}
	// Counted by resolved backend, so "auto" requests show up under the
	// backend the policy actually picked — the live view of how often
	// the deadline ladder steps down from a scheme's preferred
	// allocator.
	s.allocBackendCounter(res.AllocBackend).Inc()
	if enc := res.Encoding; enc != nil {
		resp.RangeSets = enc.RangeSets()
		resp.JoinSets = enc.JoinSets
		cfg := diffenc.Config{RegN: opts.RegN, DiffN: opts.DiffN}
		regOf := func(r ir.Reg) int { return res.Assignment.Color[r] }
		if req.Listing {
			resp.Listing = diffenc.AppliedListing(res.F, regOf, cfg, enc)
		}
		if req.Explain {
			resp.Explain = diffenc.ExplainString(res.F.Name, enc)
		}
	}
	return resp
}

// worker is the state one compile checks out: the scratch arena and,
// while capture is on, a tracer whose sink, the worker, keeps the
// finished tree for the request's TraceRecord and folds it into the
// server's metrics. Both outlive the compile, so a compile makes
// neither.
type worker struct {
	arena  scratch.Arena
	tracer *telemetry.Tracer // nil: capture disabled
	root   *telemetry.Span
	bridge *telemetry.MetricsSink
}

func (s *Server) newWorker() *worker {
	w := &worker{bridge: s.bridge}
	if s.traces != nil {
		w.tracer = telemetry.New(w)
	}
	return w
}

// Emit keeps the compile's tree and forwards it to the bridge.
func (w *worker) Emit(root *telemetry.Span) {
	w.root = root
	w.bridge.Emit(root)
}

// backends are the allocation backends a compile resolves to.
var backends = [...]diffra.Backend{diffra.AllocIRC, diffra.AllocSSA, diffra.AllocOSpill}

// allocBackendCounter returns b's service_alloc_backend_total counter,
// registering it at the backend's first compile.
func (s *Server) allocBackendCounter(b diffra.Backend) *telemetry.Counter {
	i := 0
	for i < len(backends) && backends[i] != b {
		i++
	}
	if i == len(backends) {
		return s.reg.CounterL("service_alloc_backend_total", "backend", string(b))
	}
	if c := s.allocBackend[i].Load(); c != nil {
		return c
	}
	c := s.reg.CounterL("service_alloc_backend_total", "backend", string(b))
	s.allocBackend[i].Store(c)
	return c
}

// selfCheck shadow-oracles a sampled fraction of successful compiles:
// the compiled program must reproduce the source's reference trace on
// a deterministic input. A divergence here is a compiler bug caught in
// production; it increments service_selfcheck_divergences and flags
// the request's TraceRecord (divergent traces are always retained) but
// records nothing in the response — self-check observes, it does not
// gate.
func (s *Server) selfCheck(src *ir.Func, res *diffra.Result) (diverged bool) {
	if s.cfg.SelfCheck <= 0 || s.checkTick.Add(1)%int64(s.cfg.SelfCheck) != 0 {
		return false
	}
	s.reg.Counter("service_selfcheck_runs").Inc()
	if err := difftest.CheckCompiled(src, res, difftest.DefaultSpec(src)); err != nil {
		s.reg.Counter("service_selfcheck_divergences").Inc()
		return true
	}
	return false
}
