// Command diffrad is the diffra compile server: a daemon that accepts
// IR functions over HTTP and compiles them concurrently on a fixed set
// of worker slots with a content-addressed result cache.
//
//	diffrad -addr :8791
//
// Endpoints:
//
//	POST /compile            {"ir": "...", "scheme": "coalesce", "timeout_ms": 500}
//	POST /batch              NDJSON stream of requests, responses stream back in order
//	GET  /metrics            telemetry registry: JSON by default, Prometheus
//	                         text exposition under Accept: text/plain (or
//	                         ?format=prometheus) with p50/p95/p99 per histogram
//	GET  /healthz            liveness probe: 200 "ok", 503 "draining" during shutdown
//	GET  /debug/traces       always-on request trace capture (recent + slowest +
//	                         errored), span trees under /debug/traces/{id}
//
// With -debug-addr a second listener serves the debug plane —
// net/http/pprof under /debug/pprof/, plus the trace and metrics
// endpoints — keeping profiling off the compile port. -access-log
// writes one NDJSON record per request (id, cache hit, queue wait,
// stage timings).
//
// Cluster flags: -cache-dir adds a persistent disk tier under the
// in-memory LRU (versioned, checksummed entries that survive restarts;
// damage is a miss, never an error), -max-queue bounds the worker
// queue — overflow sheds with 429 + Retry-After instead of queueing
// unboundedly — and -node-id names this node in the X-Diffra-Node
// response header for fleet debugging behind cmd/diffra-router.
//
// Per-request deadlines (timeout_ms, capped by -timeout as the
// default) propagate into the compiler's long-running searches, so a
// client that gives up stops burning a worker slot. A request picks
// its allocation backend with "alloc" in its body, or leaves it empty
// for the scheme's preferred one; "auto" makes the compiler step down
// from each scheme's preferred allocator to the near-linear SSA scan
// as a request's deadline nears, and the resolved choice comes back
// in the alloc_backend field and the X-Diffra-Alloc header. SIGINT/SIGTERM
// trigger a graceful shutdown: /healthz flips to 503 so load balancers
// stop routing, the listener closes, in-flight requests drain (the
// buffered access log flushes its final lines), then the process
// exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"diffra/internal/service"
)

func main() {
	addr := flag.String("addr", ":8791", "listen address")
	workers := flag.Int("workers", 0, "max concurrent compilations (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache-entries", 1024, "in-memory result cache capacity (negative disables)")
	cacheDir := flag.String("cache-dir", "", "persistent disk cache directory (empty = memory-only; entries are versioned and survive restarts)")
	cacheDiskBytes := flag.Int64("cache-disk-bytes", 0, "disk cache byte budget (0 = 256 MiB)")
	maxQueue := flag.Int("max-queue", 0, "max requests queued for a worker before shedding with 429 + Retry-After (0 = unbounded)")
	nodeID := flag.String("node-id", "", "fleet identity echoed as the X-Diffra-Node response header")
	maxBytes := flag.Int64("max-request-bytes", 1<<20, "request body / IR source size limit")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request compile deadline")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown drain limit")
	selfCheck := flag.Int("selfcheck", 0, "shadow-oracle every Nth successful compile against the reference interpreter (0 = off; see service_selfcheck_* metrics)")
	remapWorkers := flag.Int("remap-workers", 0, "parallel remap-search workers per compile (0 = serial; the worker slots already compile one request per core)")
	spillWorkers := flag.Int("spill-workers", 0, "parallel spill-ILP workers per compile (0 = serial; bit-identical result at any count)")
	traceBuffer := flag.Int("trace-buffer", 0, "request traces retained for /debug/traces (0 = 256; negative disables capture)")
	debugAddr := flag.String("debug-addr", "", "opt-in debug listener serving /debug/pprof/, /debug/traces and /metrics (empty = disabled)")
	accessLog := flag.String("access-log", "", "write one NDJSON access record per request to FILE (\"-\" for stdout)")
	flag.Parse()

	var access io.Writer
	if *accessLog != "" {
		if *accessLog == "-" {
			access = os.Stdout
		} else {
			af, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, "diffrad:", err)
				os.Exit(1)
			}
			defer af.Close()
			access = af
		}
	}

	srv, err := service.NewHTTP(service.Config{
		Workers:         *workers,
		CacheEntries:    *cacheEntries,
		CacheDir:        *cacheDir,
		CacheDiskBytes:  *cacheDiskBytes,
		MaxQueue:        *maxQueue,
		NodeID:          *nodeID,
		MaxRequestBytes: *maxBytes,
		DefaultTimeout:  *timeout,
		SelfCheck:       *selfCheck,
		RemapWorkers:    *remapWorkers,
		SpillWorkers:    *spillWorkers,
		TraceBuffer:     *traceBuffer,
		AccessLog:       access,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "diffrad:", err)
		os.Exit(1)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diffrad:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "diffrad: listening on %s (%d workers)\n", l.Addr(), srv.Workers())

	if *debugAddr != "" {
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "diffrad:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "diffrad: debug listener on %s (/debug/pprof/, /debug/traces, /metrics)\n", dl.Addr())
		go func() {
			if err := http.Serve(dl, srv.DebugHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "diffrad: debug listener:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintln(os.Stderr, "diffrad:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "diffrad: shutting down, draining requests")
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "diffrad: shutdown:", err)
			os.Exit(1)
		}
		<-errc
	}
}
