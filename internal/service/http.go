package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"time"

	"diffra/internal/telemetry"
)

// Handler returns the service's HTTP front end:
//
//	POST /compile            one Request as JSON -> one Response as JSON
//	POST /batch              NDJSON stream of Requests -> NDJSON stream
//	                         of Responses in input order, flushed as
//	                         they finish
//	GET  /metrics            metrics registry snapshot: JSON by
//	                         default, Prometheus text exposition when
//	                         the Accept header asks for text/plain or
//	                         openmetrics (or ?format=prometheus)
//	GET  /healthz            200 "ok", 503 "draining" once shutdown
//	                         has begun
//	GET  /debug/traces       retained request traces, newest first
//	                         (always-on capture: recent + slowest +
//	                         errored/diverged)
//	GET  /debug/traces/{id}  one trace with its full span tree
//
// Request bodies are capped at Config.MaxRequestBytes; a larger
// /compile body is answered 413.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", s.handleCompile)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTrace)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ok\n")
}

// statusOf maps a failed Response to an HTTP status: 429 for
// admission-control sheds, 504 for deadline/cancellation, 422 for
// semantic compile errors.
func statusOf(resp Response) int {
	if resp.Error == "" {
		return http.StatusOK
	}
	if resp.Shed {
		return http.StatusTooManyRequests
	}
	if resp.Timeout {
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	// The body is read whole into a pooled buffer and decoded in one
	// pass; the Request holds copies, so the buffer goes back at once.
	buf := getBuf()
	body := bytes.NewBuffer((*buf)[:0])
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	var req Request
	if err == nil {
		req, err = DecodeRequest(body.Bytes())
	}
	*buf = body.Bytes()
	putBuf(buf)
	if err != nil {
		WriteBodyError(w, err)
		return
	}
	resp := s.Compile(r.Context(), req)
	// The common headers take shared prebuilt values, which net/http
	// copies when the header is written, instead of a fresh []string
	// per header per request.
	h := w.Header()
	if s.nodeHeader != nil {
		h["X-Diffra-Node"] = s.nodeHeader
	}
	if resp.AllocBackend != "" {
		// The resolved allocation backend, so "auto" clients can see
		// which allocator answered without parsing the body.
		h["X-Diffra-Alloc"] = allocHeader(resp.AllocBackend)
	}
	if resp.Shed {
		secs := (resp.RetryAfterMs + 999) / 1000
		h.Set("Retry-After", strconv.Itoa(secs))
	}
	h["Content-Type"] = jsonContentType
	w.WriteHeader(statusOf(resp))
	json.NewEncoder(w).Encode(resp)
}

// WriteBodyError answers a request whose body could not be read or
// decoded: 413, naming the limit, when the body ran past
// http.MaxBytesReader's limit, and 400 otherwise. diffrad and the
// cluster router answer a bad body alike through it.
func WriteBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("request body exceeds the %d-byte limit (MaxRequestBytes)", tooBig.Limit), http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
}

// jsonContentType and allocHeaders are shared header values; each has
// capacity 1, so an Add to a response's copy appends to fresh storage.
var (
	jsonContentType = []string{"application/json"}
	allocHeaders    = func() map[string][]string {
		m := make(map[string][]string, len(backends))
		for _, b := range backends {
			m[string(b)] = []string{string(b)}
		}
		return m
	}()
)

// allocHeader returns the X-Diffra-Alloc value for backend b.
func allocHeader(b string) []string {
	if v, ok := allocHeaders[b]; ok {
		return v
	}
	return []string{b}
}

// handleBatch streams: requests are decoded one NDJSON value at a
// time and each is served at once, waiting for a worker slot if it
// misses, while a writer goroutine emits responses in input order,
// flushing each one — so early results reach the client while later
// compiles are still running.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("service_batches").Inc()
	// Answers stream while lines still arrive. Without full duplex an
	// HTTP/1 server discards the unread body at the first flush, which
	// loses every line not yet read and stalls a client that waits for
	// an answer before it sends on. HTTP/2 is always full duplex, so
	// the call's error there is no loss.
	http.NewResponseController(w).EnableFullDuplex()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	// The json.Decoder only cuts the stream into values; each value is
	// decoded by DecodeRequest, as /compile decodes its body.
	dec := json.NewDecoder(body)
	w.Header().Set("Content-Type", "application/x-ndjson")

	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	slots := make(chan chan Response, 64)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for c := range slots {
			enc.Encode(<-c)
			if flusher != nil {
				flusher.Flush()
			}
		}
	}()

	var wg sync.WaitGroup
	ctx := r.Context()
	var raw json.RawMessage
	for {
		err := dec.Decode(&raw)
		if err == io.EOF {
			break
		}
		var req Request
		if err == nil {
			req, err = DecodeRequest(raw)
		}
		if err != nil {
			c := make(chan Response, 1)
			c <- errResponse(fmt.Errorf("service: bad batch line: %w", err))
			slots <- c
			break
		}
		c := make(chan Response, 1)
		slots <- c
		wg.Add(1)
		go func(req Request) {
			defer wg.Done()
			c <- s.Compile(ctx, req)
		}(req)
	}
	close(slots)
	wg.Wait()
	<-writerDone
}

// handleMetrics refreshes the process gauges, then serves the
// registry through the shared telemetry handler: JSON (the PR 2
// format, still the default) or the Prometheus text exposition,
// negotiated on the Accept header or forced with ?format=.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	telemetry.MetricsHandler(s.reg, s.refreshRuntimeGauges).ServeHTTP(w, r)
}

// refreshRuntimeGauges updates the liveness-context gauges on every
// scrape, so dashboards get uptime, goroutine and heap trends for
// free without a background ticker.
func (s *Server) refreshRuntimeGauges() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.reg.Gauge("service_uptime_s").Set(int64(time.Since(s.started).Seconds()))
	s.reg.Gauge("service_goroutines").Set(int64(runtime.NumGoroutine()))
	s.reg.Gauge("service_heap_inuse_bytes").Set(int64(ms.HeapInuse))
	s.reg.Gauge("service_gomaxprocs").Set(int64(runtime.GOMAXPROCS(0)))
	s.reg.Gauge("service_queue_depth").Set(s.queued.Load())
	s.cache.refreshGauges()
}

// traceIndexEntry is the /debug/traces summary row: everything in the
// record except the span tree.
type traceIndexEntry struct {
	*TraceRecord
	Spans int `json:"spans,omitempty"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	recs := s.Traces()
	out := struct {
		Traces []traceIndexEntry `json:"traces"`
	}{Traces: make([]traceIndexEntry, 0, len(recs))}
	for _, rec := range recs {
		n := 0
		rec.Root().Walk(func(*telemetry.Span, int) { n++ })
		out.Traces = append(out.Traces, traceIndexEntry{TraceRecord: rec, Spans: n})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad trace id", http.StatusBadRequest)
		return
	}
	rec := s.Trace(id)
	if rec == nil {
		http.Error(w, "trace not retained", http.StatusNotFound)
		return
	}
	out := struct {
		*TraceRecord
		Root *telemetry.SpanJSON `json:"root,omitempty"`
	}{TraceRecord: rec, Root: telemetry.TreeJSON(rec.Root(), rec.Start)}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// DebugHandler is the opt-in debug surface cmd/diffrad binds to a
// separate listener: the pprof suite under /debug/pprof/, the trace
// endpoints, and the metrics registry. Keeping it off the service
// listener means profiling endpoints are never reachable from the
// compile port.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// HTTPServer wraps Server with a net/http server and graceful
// shutdown: Shutdown stops accepting connections, waits for in-flight
// requests to drain (their contexts are not cancelled), and only then
// returns — cmd/diffrad calls it on SIGTERM/SIGINT.
type HTTPServer struct {
	*Server
	hs *http.Server
}

// NewHTTP builds the service with its HTTP front end. It fails only
// when the configured disk cache directory cannot be opened.
func NewHTTP(cfg Config) (*HTTPServer, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &HTTPServer{Server: s, hs: &http.Server{Handler: s.Handler()}}, nil
}

// Serve accepts connections on l until Shutdown.
func (h *HTTPServer) Serve(l net.Listener) error {
	err := h.hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains in-flight requests; ctx bounds the wait. The server
// flips to draining first, so /healthz answers 503 ("draining") for
// the whole drain window and load balancers stop routing new work
// here while in-flight compiles finish. After the drain the buffered
// access log is flushed, so every request that got a response also
// has its log line on disk before the process exits.
func (h *HTTPServer) Shutdown(ctx context.Context) error {
	h.SetDraining(true)
	err := h.hs.Shutdown(ctx)
	if ferr := h.FlushAccessLog(); err == nil {
		err = ferr
	}
	return err
}
