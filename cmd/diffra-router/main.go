// Command diffra-router is the cluster front tier for a diffrad fleet:
// it routes /compile and /batch requests to backend nodes by
// consistent-hashing the compile's content-addressed cache key, so
// identical IR always lands on the node that has it cached.
//
//	diffra-router -addr :8790 -nodes http://10.0.0.1:8791,http://10.0.0.2:8791
//
// Endpoints:
//
//	POST /compile   routed + deduplicated: concurrent identical
//	                requests cost one backend compile (singleflight)
//	POST /batch     NDJSON stream; each line routed on its own key and
//	                hedged against the next ring node after the live
//	                p95 upstream latency (or -hedge-after)
//	GET  /healthz   200 "ok", 503 "draining" during shutdown
//	GET  /metrics   router telemetry (route/hedge/singleflight
//	                counters, per-node health gauges, upstream latency)
//	GET  /ring      membership debug view; ?key= shows routing order
//
// Backends that fail at the transport level are retried on their ring
// successors (router_failovers_total); HTTP-level answers — including
// 429 shed responses with Retry-After — pass through verbatim from
// the key's owner. SIGINT/SIGTERM drain exactly like diffrad.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"diffra/internal/cluster"
)

func main() {
	addr := flag.String("addr", ":8790", "listen address")
	nodes := flag.String("nodes", "", "comma-separated backend base URLs (required), e.g. http://127.0.0.1:8791,http://127.0.0.2:8791")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "backend /healthz polling period (negative disables)")
	hedgeAfter := flag.Duration("hedge-after", 0, "fixed /batch hedging delay (0 = derive from live upstream p95, clamped to [10ms, 2s]; negative disables hedging)")
	timeout := flag.Duration("timeout", 120*time.Second, "per-upstream-request deadline")
	maxBytes := flag.Int64("max-request-bytes", 8<<20, "request body / batch line size limit")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown drain limit")
	flag.Parse()

	var backends []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			backends = append(backends, strings.TrimRight(n, "/"))
		}
	}
	if len(backends) == 0 {
		fmt.Fprintln(os.Stderr, "diffra-router: -nodes is required (comma-separated backend URLs)")
		os.Exit(2)
	}

	rt, err := cluster.New(cluster.Config{
		Nodes:           backends,
		HealthInterval:  *healthInterval,
		HedgeAfter:      *hedgeAfter,
		Timeout:         *timeout,
		MaxRequestBytes: *maxBytes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "diffra-router:", err)
		os.Exit(1)
	}
	defer rt.Close()

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diffra-router:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "diffra-router: listening on %s, %d backends\n", l.Addr(), len(backends))

	hs := &http.Server{Handler: rt.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()

	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "diffra-router:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "diffra-router: shutting down, draining requests")
		rt.SetDraining(true)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "diffra-router: shutdown:", err)
			os.Exit(1)
		}
		<-errc
	}
}
