package diffra_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"

	"diffra"
	"diffra/internal/diffcoal"
	"diffra/internal/diffenc"
	"diffra/internal/diffsel"
	"diffra/internal/interp"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/ospill"
	"diffra/internal/pipeline"
	"diffra/internal/regalloc"
	"diffra/internal/scratch"
	"diffra/internal/service"
	"diffra/internal/ssaalloc"
	"diffra/internal/telemetry"
	"diffra/internal/workloads"
)

// Steady-state allocation budgets for the compile hot path, measured
// with a warm per-worker arena — the service configuration. Each
// budget is the measured number plus ~30% headroom: enough slack for
// toolchain drift, tight enough that reintroducing a per-round map or
// a per-call slice (the regressions this PR removed — the seed
// measured ~2100 allocs/op for IRCAllocate/susan) fails immediately.
// testing.AllocsPerRun runs the body once before measuring, which
// absorbs arena warm-up.
const (
	ircAllocateBudget = 200  // measured ~137 (susan, K=8)
	ssaAllocateBudget = 8    // measured 3 (susan, K=32, spill-free scan)
	diffEncodeBudget  = 80   // measured ~26 (sha, RegN=12, DiffN=8)
	checkBudget       = 64   // measured 16-25 (every §8 kernel, select/irc, RegN=12)
	compileFuncBudget = 1100 // measured ~864 (crc32, remapping, 8 restarts)
	simulateBudget    = 22   // measured 17 (crc32, K=8; constant per run)
	interpBudget      = 13   // measured 10 (crc32, K=8)
	refineBudget      = 50   // measured 38 (susan, RegN=12, DiffN=8)
	coalesceBudget    = 1460 // measured 1124 (susan, RegN=DiffN=8)
	parseBudget       = 13   // measured 10 (every §8 kernel)
	cloneBudget       = 9    // measured 7 (every §8 kernel)
	cacheKeyBudget    = 2    // measured 1 (every §8 kernel)
	hitBudget         = 2    // measured 1 (every §8 kernel, select/irc, RegN=12)
	httpHitBudget     = 8    // measured 6 (every §8 kernel, select/irc, RegN=12)
	decodeBudget      = 4    // measured 3 (every §8 kernel's select/irc/RegN=12 body)
	decideBudget      = 115  // measured 64-90 (every §8 kernel, loop spills at K=6, whole-range at K=8)
	spillBudget       = 122  // measured 47-94 (every §8 kernel, ssa and irc at K=6)
	spanTreeBudget    = 25   // measured 12-17 (ospill) and 17-19 (coalesce) over the plain compile, every §8 kernel
)

// serveMissBudgets hold a served miss on each of perfbench's
// miss-spill lanes to its allocations per request, averaged over the
// ten §8 kernels.
var serveMissBudgets = map[string]float64{
	"baseline/irc":    90,  // measured 69.5
	"baseline/ssa":    82,  // measured 62.8
	"ospill/ospill":   202, // measured 155.7
	"coalesce/ospill": 502, // measured 385.8
}

func assertAllocBudget(t *testing.T, name string, budget float64, body func()) {
	t.Helper()
	got := testing.AllocsPerRun(20, body)
	t.Logf("%s: %.0f allocs/op (budget %.0f)", name, got, budget)
	if got > budget {
		t.Errorf("%s allocates %.0f/op, budget %.0f — a hot loop regressed", name, got, budget)
	}
}

func TestAllocBudgetIRCAllocate(t *testing.T) {
	k := workloads.KernelByName("susan")
	ar := new(scratch.Arena)
	assertAllocBudget(t, "IRCAllocate/susan", ircAllocateBudget, func() {
		if _, _, err := irc.Allocate(k.F, irc.Options{K: 8, Scratch: ar}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetSSAAllocate pins the fast path's defining property:
// when no program point exceeds K, the dominance-order scan runs on
// flat arena state and a warm worker pays single-digit allocations
// per function. This is the budget the deadline ladder's "ssa always
// fits" assumption rests on, so the headroom is deliberately thin.
func TestAllocBudgetSSAAllocate(t *testing.T) {
	k := workloads.KernelByName("susan")
	ar := new(scratch.Arena)
	assertAllocBudget(t, "SSAAllocate/susan", ssaAllocateBudget, func() {
		if _, _, err := ssaalloc.Allocate(k.F, ssaalloc.Options{K: 32, Scratch: ar}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetDiffEncode(t *testing.T) {
	k := workloads.KernelByName("sha")
	out, asn, err := irc.Allocate(k.F, irc.Options{K: 12})
	if err != nil {
		t.Fatal(err)
	}
	cfg := diffenc.Config{RegN: 12, DiffN: 8}
	regOf := func(r ir.Reg) int { return asn.Color[r] }
	ar := new(scratch.Arena)
	assertAllocBudget(t, "DiffEncode/sha", diffEncodeBudget, func() {
		ar.Reset()
		if _, err := diffenc.EncodeScratch(out, regOf, cfg, ar); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetCheck pins the encoding checker: it decodes through
// one Decoder over flat per-block rows, so it allocates per function,
// never per instruction or per fixpoint round.
func TestAllocBudgetCheck(t *testing.T) {
	for _, k := range workloads.Kernels() {
		res, err := diffra.CompileFunc(k.F, diffra.Options{Scheme: diffra.Select, Alloc: diffra.AllocIRC, RegN: 12})
		if err != nil {
			t.Fatal(err)
		}
		// Back to the function as Encode saw it: the plan's sets are in
		// pre-insertion coordinates.
		for _, b := range res.F.Blocks {
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				if in.Op != ir.OpSetLastReg {
					kept = append(kept, in)
				}
			}
			b.Instrs = kept
		}
		enc := res.Encoding
		assertAllocBudget(t, "Check/"+k.Name, checkBudget, func() {
			if err := diffenc.Check(res.F, res.Assignment.RegOf, enc.Cfg, enc); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllocBudgetCompileFunc(t *testing.T) {
	k := workloads.KernelByName("crc32")
	ar := new(scratch.Arena)
	opts := diffra.Options{Scheme: diffra.Remapping, RegN: 8, DiffN: 6, Restarts: 8, Scratch: ar}
	assertAllocBudget(t, "CompileFunc/crc32/remapping", compileFuncBudget, func() {
		if _, err := diffra.CompileFunc(k.F, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetRefine pins the select post-pass: each run refines a
// fresh copy of susan's IRC coloring, so every run makes the same
// moves.
func TestAllocBudgetRefine(t *testing.T) {
	k := workloads.KernelByName("susan")
	out, asn, err := irc.Allocate(k.F, irc.Options{K: 12})
	if err != nil {
		t.Fatal(err)
	}
	work := *asn
	work.Color = make([]int, len(asn.Color))
	p := diffsel.Params{RegN: 12, DiffN: 8}
	assertAllocBudget(t, "Refine/susan", refineBudget, func() {
		copy(work.Color, asn.Color)
		diffsel.Refine(out, &work, p)
	})
}

// TestAllocBudgetCoalesce pins differential coalesce as miss-spill's
// coalesce lane runs it: every probe rebuilds the merged graph into
// reused scratch.
func TestAllocBudgetCoalesce(t *testing.T) {
	k := workloads.KernelByName("susan")
	assertAllocBudget(t, "Coalesce/susan", coalesceBudget, func() {
		if _, _, _, err := diffcoal.Allocate(k.F, diffcoal.Options{RegN: 8, DiffN: 8}); err != nil {
			t.Fatal(err)
		}
	})
}

// crc32K8 is the allocated crc32 kernel both executor budgets run.
func crc32K8(t *testing.T) (*workloads.Kernel, *ir.Func, *regalloc.Assignment) {
	t.Helper()
	k := workloads.KernelByName("crc32")
	out, asn, err := irc.Allocate(k.F, irc.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	return k, out, asn
}

// TestAllocBudgetSimulate pins the simulator's allocations per run:
// a constant for the run's state, independent of how many
// instructions execute.
func TestAllocBudgetSimulate(t *testing.T) {
	k, out, asn := crc32K8(t)
	m, err := pipeline.New(pipeline.LowEnd())
	if err != nil {
		t.Fatal(err)
	}
	opts := pipeline.RunOptions{Args: k.Args, OrigParams: k.F.Params, Mem: k.Mem}
	assertAllocBudget(t, "Simulate/crc32", simulateBudget, func() {
		if _, _, err := m.Run(out, asn, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetInterp pins the oracle interpreter's allocations per
// run on the same program.
func TestAllocBudgetInterp(t *testing.T) {
	k, out, asn := crc32K8(t)
	opts := interp.Options{
		Args: k.Args, OrigParams: k.F.Params, StackParams: asn.StackParams, Mem: k.Mem,
		NumRegs: asn.K, RegOf: func(r ir.Reg) int { return asn.Color[r] },
	}
	assertAllocBudget(t, "Interp/crc32", interpBudget, func() {
		if _, err := interp.Run(out, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetParse pins the IR front end every request pays but a
// repeated text: instructions, operands and block lists come from
// slabs, so parsing allocates per function and per block, never per
// token.
func TestAllocBudgetParse(t *testing.T) {
	for _, k := range workloads.Kernels() {
		src := k.F.String()
		assertAllocBudget(t, "Parse/"+k.Name, parseBudget, func() {
			if _, err := ir.Parse(src); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllocBudgetClone pins the copy every allocator makes of its
// input: blocks, edge lists, instructions, operands and instruction
// lists each come from one slab, so a clone allocates per function,
// never per block or instruction.
func TestAllocBudgetClone(t *testing.T) {
	for _, k := range workloads.Kernels() {
		assertAllocBudget(t, "Clone/"+k.Name, cloneBudget, func() {
			k.F.Clone()
		})
	}
}

// TestAllocBudgetSpanTree pins what capture adds to a compile: the
// traced compile, under a tracer whose trees fold into a registry as
// the service's do, minus the plain one. A tree's spans, child lists,
// counters and attributes come from chunks its root owns, so the
// difference is a few chunks and the boxed attribute values, not an
// allocation per span or counter.
func TestAllocBudgetSpanTree(t *testing.T) {
	ar := new(scratch.Arena)
	for _, lane := range spillLanes[2:] {
		opts := diffra.Options{Scheme: diffra.Scheme(lane.Scheme), Alloc: diffra.Backend(lane.Alloc), RegN: lane.RegN, Scratch: ar}
		traced := opts
		traced.Telemetry = telemetry.New(&telemetry.MetricsSink{Reg: telemetry.NewRegistry()})
		for _, k := range workloads.Kernels() {
			compile := func(opts diffra.Options) func() {
				return func() {
					if _, err := diffra.CompileFunc(k.F, opts); err != nil {
						t.Fatal(err)
					}
				}
			}
			plain := testing.AllocsPerRun(20, compile(opts))
			name := "SpanTree/" + lane.Scheme + "/" + k.Name
			got := testing.AllocsPerRun(20, compile(traced)) - plain
			t.Logf("%s: %.0f allocs/op (budget %d)", name, got, spanTreeBudget)
			if got > spanTreeBudget {
				t.Errorf("%s allocates %.0f/op over the plain compile, budget %d", name, got, spanTreeBudget)
			}
		}
	}
}

// TestAllocBudgetServeMiss pins a cache miss through Server.Compile,
// capture on, on each of perfbench's miss-spill lanes: parse, key,
// compile on the worker's arena, capture and cache the result.
func TestAllocBudgetServeMiss(t *testing.T) {
	srv, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const runs = 10
	for _, lane := range spillLanes {
		name := "ServeMiss/" + lane.Scheme + "/" + lane.Alloc
		// AllocsPerRun serves the ten kernels runs+1 times.
		reqs := missRequests(lane, 10*(runs+1))
		got := testing.AllocsPerRun(runs, func() {
			for _, req := range reqs[:10] {
				if resp := srv.Compile(ctx, req); resp.Error != "" || resp.Cached {
					t.Fatalf("%s: %q cached=%v", name, resp.Error, resp.Cached)
				}
			}
			reqs = reqs[10:]
		}) / 10
		budget := serveMissBudgets[lane.Scheme+"/"+lane.Alloc]
		t.Logf("%s: %.1f allocs/request (budget %.0f)", name, got, budget)
		if got > budget {
			t.Errorf("%s allocates %.1f/request, budget %.0f", name, got, budget)
		}
	}
}

// TestAllocBudgetCacheKey pins the cache key to its one result string:
// the printing and the options are hashed from a stack buffer.
func TestAllocBudgetCacheKey(t *testing.T) {
	opts, err := diffra.Options{}.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range workloads.Kernels() {
		assertAllocBudget(t, "CacheKey/"+k.Name, cacheKeyBudget, func() {
			service.CacheKey(k.F, opts, false, false)
		})
	}
}

// TestAllocBudgetHit pins a warm repeat through Server.Compile: a text
// the server has seen twice is found by its source key, so the hit
// neither parses nor prints nor keys the function and allocates per
// request, never per instruction.
func TestAllocBudgetHit(t *testing.T) {
	srv, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, k := range workloads.Kernels() {
		req := service.Request{IR: k.F.String(), Scheme: "select", Alloc: "irc", RegN: 12}
		// The first request compiles, the second hits through the
		// canonical key and records the source key.
		for i := 0; i < 2; i++ {
			if resp := srv.Compile(ctx, req); resp.Error != "" {
				t.Fatalf("%s: %s", k.Name, resp.Error)
			}
		}
		assertAllocBudget(t, "Hit/"+k.Name, hitBudget, func() {
			if resp := srv.Compile(ctx, req); !resp.Cached {
				t.Fatalf("%s: repeat missed the cache", k.Name)
			}
		})
	}
}

// discardWriter is an http.ResponseWriter that keeps one header map
// across responses and drops the body, so a handler's allocations are
// its own.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestAllocBudgetServeHTTPHit pins a warm repeat through the /compile
// handler: decode, the source-key hit, the response headers (shared
// prebuilt values, not one []string per header) and the JSON reply.
// The body decodes through a pooled buffer, so the budget skips under
// the race detector.
func TestAllocBudgetServeHTTPHit(t *testing.T) {
	if raceEnabled {
		t.Skip("the request buffer comes from a sync.Pool, which drops items under -race")
	}
	srv, err := service.New(service.Config{NodeID: "node-a"})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	w := &discardWriter{h: http.Header{}}
	body := bytes.NewReader(nil)
	req, err := http.NewRequest("POST", "/compile", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Body = io.NopCloser(body)
	bodies := kernelBodies(t)
	for i, k := range workloads.Kernels() {
		b := bodies[i]
		serve := func() {
			body.Reset(b)
			clear(w.h)
			h.ServeHTTP(w, req)
		}
		serve()
		serve()
		assertAllocBudget(t, "ServeHTTPHit/"+k.Name, httpHitBudget, serve)
		if w.h.Get("X-Diffra-Alloc") != "irc" || w.h.Get("X-Diffra-Node") != "node-a" {
			t.Fatalf("%s: headers %v", k.Name, w.h)
		}
	}
}

// TestAllocBudgetDecodeRequest pins the decode of a /compile body: one
// pass that allocates the strings it returns and nothing per byte, key
// or escape. The body is read through a pooled buffer, so the budget
// skips under the race detector.
func TestAllocBudgetDecodeRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("DecodeRequest's scratch comes from a sync.Pool, which drops items under -race")
	}
	bodies := kernelBodies(t)
	for i, k := range workloads.Kernels() {
		assertAllocBudget(t, "DecodeRequest/"+k.Name, decodeBudget, func() {
			if _, err := service.DecodeRequest(bodies[i]); err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
		})
	}
}

// TestAllocBudgetDecide pins the exact spill decision both spill lanes
// pay on every miss: one builder pass over the program points, a flat
// ILP front end and flat CFG analyses, so Decide allocates per
// function and per solver component, never per program point,
// constraint or block.
func TestAllocBudgetDecide(t *testing.T) {
	for _, k := range workloads.Kernels() {
		assertAllocBudget(t, "Decide/loop/K6/"+k.Name, decideBudget, func() {
			ospill.Decide(k.F, ospill.Options{K: 6})
		})
		assertAllocBudget(t, "Decide/whole/K8/"+k.Name, decideBudget, func() {
			ospill.Decide(k.F, ospill.Options{K: 8, DisableLoopSpills: true})
		})
	}
}

// TestAllocBudgetSpill pins the spilling path that miss-spill's
// baseline/ssa and baseline/irc lanes run: both backends at K=6, where
// every kernel spills, rewrite through the one regalloc spill call
// and keep no per-round maps of their own.
func TestAllocBudgetSpill(t *testing.T) {
	ar := new(scratch.Arena)
	for _, k := range workloads.Kernels() {
		assertAllocBudget(t, "Spill/ssa/K6/"+k.Name, spillBudget, func() {
			if _, _, err := ssaalloc.Allocate(k.F, ssaalloc.Options{K: 6, Scratch: ar}); err != nil {
				t.Fatal(err)
			}
		})
		assertAllocBudget(t, "Spill/irc/K6/"+k.Name, spillBudget, func() {
			if _, _, err := irc.Allocate(k.F, irc.Options{K: 6, Scratch: ar}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
