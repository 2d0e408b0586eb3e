// Command diffra compiles a textual IR function with a chosen register
// allocation scheme and differential encoding configuration, then
// reports the allocation, the encoding plan and the static costs. It
// is the interactive front door to the library:
//
//	diffra -scheme coalesce -regn 12 -diffn 8 program.ir
//	diffra -scheme baseline -regn 8 -dump program.ir
//	diffra -scheme coalesce -trace trace.json -explain-slr program.ir
//	diffra -addr localhost:8791 -scheme ospill program.ir
//	diffra -addr localhost:8791 -alloc auto -timeout-ms 50 program.ir
//
// With -addr the compilation is shipped to a running diffrad server
// (see cmd/diffrad) instead of happening in-process; -timeout-ms
// bounds the remote compile.
//
// -alloc picks the allocation backend independently of the scheme:
// irc (iterated register coalescing), ssa (the near-linear chordal
// scan), ospill (exact spilling), or auto, which steps down from the
// scheme's preferred backend to cheaper ones as the request deadline
// nears. Empty keeps the scheme's preferred backend.
//
// Schemes: baseline (iterated register coalescing, direct encoding),
// remapping (§5), select (§6), ospill (optimal spilling, direct),
// coalesce (§7).
//
// -selfcheck oracles the compile before reporting: the allocated
// program — run directly and through both stream-decode models — must
// reproduce the source's reference interpretation on a deterministic
// input, or diffra exits non-zero with the first divergence.
//
// Observability flags: -trace FILE writes the compile span tree as
// JSON lines (one span per line; "-" for stdout), -metrics prints the
// process-wide metrics registry on exit — including the per-stage
// latency histograms (diffra_stage_us{stage,scheme}, with p50/p95/p99)
// folded out of the compile's span tree — -explain-slr attributes every
// set_last_reg repair to its cause (out-of-range difference or
// control-flow join), and -cpuprofile/-memprofile write pprof
// profiles.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"diffra"
	"diffra/internal/diffenc"
	"diffra/internal/difftest"
	"diffra/internal/ir"
	"diffra/internal/pipeline"
	"diffra/internal/service"
	"diffra/internal/telemetry"
)

func main() {
	scheme := flag.String("scheme", "select", "baseline|remapping|select|ospill|coalesce")
	alloc := flag.String("alloc", "", "allocation backend: auto|irc|ssa|ospill (empty = the scheme's preferred; auto steps down as the deadline nears)")
	regN := flag.Int("regn", 12, "addressable registers (RegN)")
	diffN := flag.Int("diffn", 8, "encodable differences (DiffN)")
	restarts := flag.Int("restarts", 1000, "remapping restarts")
	remapWorkers := flag.Int("remap-workers", 0, "parallel remap-search workers, bit-identical result at any count (0 = GOMAXPROCS; in-process only)")
	spillWorkers := flag.Int("spill-workers", 0, "parallel spill-ILP workers (ospill/coalesce), bit-identical result at any count (0 = serial; in-process only)")
	dump := flag.Bool("dump", false, "print the allocated function")
	listing := flag.Bool("listing", false, "print the encoded listing (differential schemes)")
	runArgs := flag.String("run", "", "simulate with comma-separated integer arguments (e.g. -run 3,5)")
	traceFile := flag.String("trace", "", "write the compile span tree as JSON lines to FILE (\"-\" for stdout)")
	metrics := flag.Bool("metrics", false, "print the metrics registry on exit")
	explainSLR := flag.Bool("explain-slr", false, "attribute every set_last_reg repair to its cause")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to FILE")
	memProfile := flag.String("memprofile", "", "write a heap profile to FILE")
	addr := flag.String("addr", "", "compile remotely via a diffrad server at HOST:PORT instead of in-process")
	timeoutMs := flag.Int("timeout-ms", 0, "remote compile deadline in milliseconds (with -addr; 0 = server default)")
	selfCheck := flag.Bool("selfcheck", false, "oracle the compile against the reference interpreter (in-process only)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: diffra [flags] program.ir")
		os.Exit(2)
	}

	if *addr != "" {
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		err = remote(os.Stdout, *addr, service.Request{
			IR:        string(src),
			Scheme:    *scheme,
			Alloc:     *alloc,
			RegN:      *regN,
			DiffN:     *diffN,
			Restarts:  *restarts,
			TimeoutMs: *timeoutMs,
			Listing:   *listing,
			Explain:   *explainSLR,
		})
		if err != nil {
			fatal(err)
		}
		return
	}

	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// -trace and -metrics share one tracer: the JSON sink writes the
	// span tree, the span→metrics bridge folds it into this run's own
	// registry, so -metrics shows the breakdown diffrad serves without
	// a trace file configured.
	var sinks telemetry.MultiSink
	var reg *telemetry.Registry
	if *traceFile != "" {
		var w io.Writer = os.Stdout
		if *traceFile != "-" {
			tf, err := os.Create(*traceFile)
			if err != nil {
				fatal(err)
			}
			defer tf.Close()
			w = tf
		}
		sinks = append(sinks, &telemetry.JSONSink{W: w})
	}
	if *metrics {
		reg = telemetry.NewRegistry()
		sinks = append(sinks, &telemetry.MetricsSink{Reg: reg})
	}
	var tracer *telemetry.Tracer
	if len(sinks) > 0 {
		tracer = telemetry.New(sinks)
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	f, err := ir.Parse(string(src))
	if err != nil {
		fatal(err)
	}

	res, err := diffra.CompileFunc(f.Clone(), diffra.Options{
		Scheme:       diffra.Scheme(*scheme),
		Alloc:        diffra.Backend(*alloc),
		RegN:         *regN,
		DiffN:        *diffN,
		Restarts:     *restarts,
		RemapWorkers: *remapWorkers,
		SpillWorkers: *spillWorkers,
		Telemetry:    tracer,
	})
	if err != nil {
		fatal(err)
	}
	out, asn := res.F, res.Assignment

	fmt.Printf("function       %s\n", out.Name)
	fmt.Printf("scheme         %s (RegN=%d DiffN=%d)\n", *scheme, *regN, *diffN)
	fmt.Printf("alloc backend  %s\n", res.AllocBackend)
	fmt.Printf("instructions   %d\n", res.Instrs)
	fmt.Printf("spill instrs   %d (%.2f%%)\n", res.SpillInstrs, pct(res.SpillInstrs, res.Instrs))
	fmt.Printf("spilled ranges %d\n", asn.SpilledVRegs)
	fmt.Printf("moves removed  %d\n", asn.CoalescedMoves)

	cfg := diffenc.Config{RegN: *regN, DiffN: *diffN}
	regOf := func(r ir.Reg) int { return asn.Color[r] }
	if enc := res.Encoding; enc != nil {
		fmt.Printf("field width    %d bits (direct would need %d)\n", cfg.DiffW(), cfg.RegW())
		fmt.Printf("set_last_reg   %d (%d out-of-range, %d join), %.2f%% of code after insertion\n",
			enc.Cost(), enc.RangeSets(), enc.JoinSets, pct(enc.Cost(), res.Instrs))
		if *explainSLR {
			fmt.Println()
			diffenc.Explain(os.Stdout, out.Name, enc)
		}
		if *listing {
			fmt.Println()
			fmt.Print(diffenc.AppliedListing(out, regOf, cfg, enc))
		}
	} else if *explainSLR {
		fmt.Printf("set_last_reg   0 (scheme %q encodes directly)\n", *scheme)
	}

	if *selfCheck {
		spec := difftest.DefaultSpec(f)
		if err := difftest.CheckCompiled(f, res, spec); err != nil {
			fatal(fmt.Errorf("selfcheck: %w", err))
		}
		fmt.Printf("selfcheck      ok (allocated + sequential/parallel decode vs reference, args=%v)\n", spec.Args)
	}

	if *dump {
		fmt.Println()
		fmt.Print(out)
		fmt.Println("register assignment:")
		for v, c := range asn.Color {
			if c >= 0 {
				fmt.Printf("  v%d -> R%d\n", v, c)
			}
		}
	}

	if *runArgs != "" {
		args, err := parseArgs(*runArgs)
		if err != nil {
			fatal(err)
		}
		mach, err := pipeline.New(pipeline.LowEnd())
		if err != nil {
			fatal(err)
		}
		// Reference run on virtual registers, then the allocated run.
		want, _, err := mach.Run(f, nil, pipeline.RunOptions{Args: args})
		if err != nil {
			fatal(err)
		}
		got, st, err := mach.Run(out, asn, pipeline.RunOptions{Args: args, OrigParams: f.Params})
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Printf("simulated(%s)  = %d (reference %d)\n", *runArgs, got, want)
		fmt.Printf("%s\n", st.String())
		if got != want {
			fatal(fmt.Errorf("allocated run disagrees with reference"))
		}
	}

	if reg != nil {
		fmt.Println()
		reg.WriteText(os.Stdout)
	}
	if *memProfile != "" {
		mf, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer mf.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			fatal(err)
		}
	}
}

// remote ships the request to a diffrad server and renders the
// response to w in the same shape as a local compile. Every failure —
// transport, a non-JSON reply, or a compile error reported by the
// server — comes back as an error carrying the server's message, so
// main exits non-zero with the cause on stderr.
func remote(w io.Writer, addr string, req service.Request) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	hr, err := http.Post(addr+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer hr.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hr.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("reading response (%s): %v", hr.Status, err)
	}
	var resp service.Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		// Not a service Response (wrong endpoint, proxy error page):
		// surface the status and whatever the server said verbatim.
		return fmt.Errorf("server %s: %s", hr.Status, strings.TrimSpace(string(raw)))
	}
	if resp.Error != "" {
		return fmt.Errorf("%s", resp.Error)
	}
	fmt.Fprintf(w, "function       %s (remote%s)\n", resp.Func, map[bool]string{true: ", cached", false: ""}[resp.Cached])
	fmt.Fprintf(w, "scheme         %s (RegN=%d DiffN=%d)\n", resp.Scheme, resp.RegN, resp.DiffN)
	if resp.AllocBackend != "" {
		fmt.Fprintf(w, "alloc backend  %s\n", resp.AllocBackend)
	}
	fmt.Fprintf(w, "instructions   %d\n", resp.Instrs)
	fmt.Fprintf(w, "spill instrs   %d (%.2f%%)\n", resp.SpillInstrs, pct(resp.SpillInstrs, resp.Instrs))
	fmt.Fprintf(w, "spilled ranges %d\n", resp.SpilledVRegs)
	fmt.Fprintf(w, "moves removed  %d\n", resp.CoalescedMoves)
	if resp.SetLastRegs > 0 || resp.DiffW > 0 {
		fmt.Fprintf(w, "field width    %d bits (direct would need %d)\n", resp.DiffW, resp.RegW)
		fmt.Fprintf(w, "set_last_reg   %d (%d out-of-range, %d join), %.2f%% of code after insertion\n",
			resp.SetLastRegs, resp.RangeSets, resp.JoinSets, pct(resp.SetLastRegs, resp.Instrs))
	}
	if resp.Explain != "" {
		fmt.Fprintln(w)
		fmt.Fprint(w, resp.Explain)
	}
	if resp.Listing != "" {
		fmt.Fprintln(w)
		fmt.Fprint(w, resp.Listing)
	}
	return nil
}

func parseArgs(s string) ([]int64, error) {
	var out []int64
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad argument %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diffra:", strings.TrimPrefix(err.Error(), "diffra: "))
	os.Exit(1)
}
