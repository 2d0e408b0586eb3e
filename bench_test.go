// Package diffra_test hosts the benchmark harness that regenerates
// every table and figure of the paper's evaluation (§10). Each
// Benchmark* below corresponds to one figure or table; the headline
// numbers are emitted as custom benchmark metrics so that
//
//	go test -bench=. -benchmem
//
// reproduces the same rows the paper reports (shape, not absolute
// values — see EXPERIMENTS.md). The full-size runs live in cmd/lowend
// and cmd/vliwbench; the benchmarks use reduced search effort and a
// population sample to stay in benchmark time.
//
// The component benchmarks below also back the committed BENCH_*.json
// baselines: cmd/benchjson converts `go test -bench` output into those
// files and gates a run against them (README.md has the commands).
package diffra_test

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"testing"
	"time"

	"diffra"
	"diffra/internal/adjacency"
	"diffra/internal/diffenc"
	"diffra/internal/experiments"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/modsched"
	"diffra/internal/pipeline"
	"diffra/internal/remap"
	"diffra/internal/scratch"
	"diffra/internal/service"
	"diffra/internal/ssaalloc"
	"diffra/internal/telemetry"
	"diffra/internal/vliw"
	"diffra/internal/workloads"
)

func lowEndCfg() experiments.LowEndConfig {
	cfg := experiments.DefaultLowEnd()
	cfg.Restarts = 60
	return cfg
}

func vliwCfg() experiments.VLIWConfig {
	cfg := experiments.DefaultVLIW()
	cfg.Loops = 120
	cfg.Restarts = 10
	return cfg
}

// BenchmarkFig11Spills regenerates Figure 11: average static spill
// percentage per scheme.
func BenchmarkFig11Spills(b *testing.B) {
	var rep *experiments.LowEndReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.RunLowEnd(lowEndCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range experiments.Schemes() {
		b.ReportMetric(rep.AvgSpillPct(s), "spill%/"+s)
	}
}

// BenchmarkFig12Cost regenerates Figure 12: average set_last_reg
// percentage for the three differential schemes.
func BenchmarkFig12Cost(b *testing.B) {
	var rep *experiments.LowEndReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.RunLowEnd(lowEndCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range []string{experiments.SchemeRemap, experiments.SchemeSelect, experiments.SchemeCoalesce} {
		b.ReportMetric(rep.AvgCostPct(s), "cost%/"+s)
	}
}

// BenchmarkFig13CodeSize regenerates Figure 13: code size normalized
// to the baseline.
func BenchmarkFig13CodeSize(b *testing.B) {
	var rep *experiments.LowEndReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.RunLowEnd(lowEndCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range experiments.Schemes() {
		b.ReportMetric(rep.AvgCodeSize(s), "size/"+s)
	}
}

// BenchmarkFig14Speedup regenerates Figure 14: simulated speedup over
// the baseline on the low-end pipeline.
func BenchmarkFig14Speedup(b *testing.B) {
	var rep *experiments.LowEndReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.RunLowEnd(lowEndCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range []string{experiments.SchemeRemap, experiments.SchemeSelect, experiments.SchemeOSpill, experiments.SchemeCoalesce} {
		b.ReportMetric(rep.AvgSpeedup(s), "speedup%/"+s)
	}
}

// BenchmarkTable2Speedup regenerates Table 2: software-pipelining
// speedups per RegN (40..64) over the RegN=32 baseline.
func BenchmarkTable2Speedup(b *testing.B) {
	var rep *experiments.VLIWReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.RunVLIW(vliwCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rep.Rows {
		b.ReportMetric(row.SpeedupAll, "speedup%/all/regn"+strconv.Itoa(row.RegN))
	}
}

// BenchmarkTable3Spills regenerates Table 3: spills in optimized loops
// and overall code growth per RegN.
func BenchmarkTable3Spills(b *testing.B) {
	var rep *experiments.VLIWReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.RunVLIW(vliwCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rep.Rows {
		b.ReportMetric(float64(row.SpillsOptimized), "spills/regn"+strconv.Itoa(row.RegN))
		b.ReportMetric(row.GrowthAllCode, "growth%/regn"+strconv.Itoa(row.RegN))
	}
}

// ---- component micro-benchmarks ----

// benchPrimed runs op once, so a scratch arena it uses grows to its
// steady state, then measures it. Even a -benchtime 1x run (the CI
// alloc gate) thus reports what a warm service worker pays.
func benchPrimed(b *testing.B, op func() error) {
	if err := op(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIRCAllocate measures the baseline allocator on the largest
// kernel with a warm arena, the steady-state service configuration.
func BenchmarkIRCAllocate(b *testing.B) {
	k := workloads.KernelByName("susan")
	b.Run("susan", func(b *testing.B) {
		ar := new(scratch.Arena)
		benchPrimed(b, func() error {
			_, _, err := irc.Allocate(k.F, irc.Options{K: 8, Scratch: ar})
			return err
		})
	})
}

// BenchmarkDiffEncode measures differential encoding of an allocated
// kernel.
func BenchmarkDiffEncode(b *testing.B) {
	k := workloads.KernelByName("sha")
	out, asn, err := irc.Allocate(k.F, irc.Options{K: 12})
	if err != nil {
		b.Fatal(err)
	}
	cfg := diffenc.Config{RegN: 12, DiffN: 8}
	regOf := func(r ir.Reg) int { return asn.Color[r] }
	b.Run("sha", func(b *testing.B) {
		ar := new(scratch.Arena)
		benchPrimed(b, func() error {
			ar.Reset()
			_, err := diffenc.EncodeScratch(out, regOf, cfg, ar)
			return err
		})
	})
}

// BenchmarkRemapGreedy measures the §5 permutation search on one
// worker; the search is deterministic at any worker count, and the
// determinism tests cover the parallel path. The lanes cover both
// forms of the descent's cost-matrix windows: 12/8 keeps the violated
// window (4 wide), 12/4 and 16/8 the satisfied one (4 and 8 wide).
func BenchmarkRemapGreedy(b *testing.B) {
	k := workloads.KernelByName("bitcount")
	lanes := []struct {
		name        string
		regN, diffN int
	}{
		{"bitcount", 12, 8},
		{"bitcount-12x4", 12, 4},
		{"bitcount-16x8", 16, 8},
	}
	for _, lane := range lanes {
		out, asn, err := irc.Allocate(k.F, irc.Options{K: lane.regN})
		if err != nil {
			b.Fatal(err)
		}
		g := adjacency.BuildReg(out, func(r ir.Reg) int { return asn.Color[r] }, lane.regN)
		opts := remap.Options{RegN: lane.regN, DiffN: lane.diffN, Restarts: 100, Seed: 1, Workers: 1}
		b.Run(lane.name, func(b *testing.B) {
			b.ReportAllocs()
			var evals int
			for i := 0; i < b.N; i++ {
				evals += remap.Greedy(g, opts).Evaluated
			}
			b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "evals/s")
		})
	}
}

// BenchmarkParse measures the IR front end that every request to the
// router pays, and every request to the daemon but a repeated text:
// one op parses the text of all ten §8 kernels.
func BenchmarkParse(b *testing.B) {
	var texts []string
	for _, k := range workloads.Kernels() {
		texts = append(texts, k.F.String())
	}
	b.Run("kernels", func(b *testing.B) {
		benchPrimed(b, func() error {
			for _, src := range texts {
				if _, err := ir.Parse(src); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// BenchmarkCacheKey measures the content address every request is
// looked up and routed under: one op keys all ten §8 kernels at the
// default options.
func BenchmarkCacheKey(b *testing.B) {
	opts, err := diffra.Options{}.Resolved()
	if err != nil {
		b.Fatal(err)
	}
	kernels := workloads.Kernels()
	b.Run("kernels", func(b *testing.B) {
		benchPrimed(b, func() error {
			for _, k := range kernels {
				service.CacheKey(k.F, opts, false, false)
			}
			return nil
		})
	})
}

// BenchmarkServeHit measures what a repeat request costs inside the
// server: one op serves the ten §8 kernels (select/irc, RegN 12) as
// warm repeats through Server.Compile. Every kernel is served twice
// before the timer starts, so the timed requests find their entries by
// source key, as a daemon answers a text it has seen before.
func BenchmarkServeHit(b *testing.B) {
	srv, err := service.New(service.Config{})
	if err != nil {
		b.Fatal(err)
	}
	var reqs []service.Request
	for _, k := range workloads.Kernels() {
		reqs = append(reqs, service.Request{IR: k.F.String(), Scheme: "select", Alloc: "irc", RegN: 12})
	}
	ctx := context.Background()
	serve := func(wantCached bool) error {
		for _, req := range reqs {
			resp := srv.Compile(ctx, req)
			if resp.Error != "" {
				return errors.New(resp.Error)
			}
			if wantCached && !resp.Cached {
				return errors.New("service: repeat missed the cache")
			}
		}
		return nil
	}
	b.Run("kernels", func(b *testing.B) {
		// The first pass compiles; benchPrimed's untimed pass is the
		// second sight that records each source key.
		if err := serve(false); err != nil {
			b.Fatal(err)
		}
		benchPrimed(b, func() error { return serve(true) })
	})
}

// kernelBodies returns the /compile bodies of the ten §8 kernels in
// the select/irc/RegN-12 lane, encoded as perfbench encodes them.
func kernelBodies(tb testing.TB) [][]byte {
	var bodies [][]byte
	for _, k := range workloads.Kernels() {
		body, err := json.Marshal(service.Request{IR: k.F.String(), Scheme: "select", Alloc: "irc", RegN: 12})
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// BenchmarkDecodeRequest measures the decode every request to the
// daemon pays before the cache sees it: one op decodes the ten §8
// kernels' select/irc/RegN-12 bodies.
func BenchmarkDecodeRequest(b *testing.B) {
	bodies := kernelBodies(b)
	b.Run("kernels", func(b *testing.B) {
		benchPrimed(b, func() error {
			for _, body := range bodies {
				if _, err := service.DecodeRequest(body); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// pipelineOpts is the Pipeline lanes' fixed configuration: the paper's
// reference point (select scheme, 12 registers, 8 encodable
// differences) at 100 restarts, so one compile stays near a
// millisecond. The arena is the service's per-worker configuration:
// CompileFunc resets it between phases.
func pipelineOpts(ar *scratch.Arena) diffra.Options {
	return diffra.Options{Scheme: diffra.Select, RegN: 12, DiffN: 8, Restarts: 100, Scratch: ar}
}

// BenchmarkPipeline measures end-to-end CompileFunc on every §8 kernel
// twice, back to back: plain with Telemetry nil (the compiled-out
// path), and traced with the service's always-on capture attached (a
// fresh CollectSink per compile plus the span→metrics bridge, as
// internal/service wires each request). cmd/benchjson turns the pairs
// into instrumentation_overhead_pct; the traced lanes report the mean
// duration of the compile span and of each stage beneath it, from
// which it derives stage_shares.
func BenchmarkPipeline(b *testing.B) {
	bridge := &telemetry.MetricsSink{Reg: telemetry.NewRegistry()}
	for _, k := range workloads.Kernels() {
		b.Run(k.Name+"/plain", func(b *testing.B) {
			opts := pipelineOpts(new(scratch.Arena))
			benchPrimed(b, func() error {
				_, err := diffra.CompileFunc(k.F.Clone(), opts)
				return err
			})
		})
		b.Run(k.Name+"/traced", func(b *testing.B) {
			ar := new(scratch.Arena)
			stages := map[string]time.Duration{}
			benchPrimed(b, func() error {
				capture := &telemetry.CollectSink{}
				opts := pipelineOpts(ar)
				opts.Telemetry = telemetry.New(telemetry.MultiSink{capture, bridge})
				if _, err := diffra.CompileFunc(k.F.Clone(), opts); err != nil {
					return err
				}
				root := capture.Last()
				if root == nil {
					return errors.New("capture lost the span tree")
				}
				stages["compile"] += root.Dur
				for _, c := range root.Children {
					stages[telemetry.NormalizeStage(c.Name)] += c.Dur
				}
				return nil
			})
			// The sums include the priming compile.
			for name, d := range stages {
				b.ReportMetric(float64(d.Nanoseconds())/float64(b.N+1), name+"-ns/op")
			}
		})
	}
}

// allocK is the Alloc lanes' register-file width. K=32 keeps every §8
// kernel spill-free, which is the comparison that matters: once both
// backends spill they share Assignment.Spill and the gap collapses to the
// rewrite cost, but the deadline ladder steps down precisely when
// allocation itself, not spill insertion, is the budget risk.
const allocK = 32

// BenchmarkAlloc races the portfolio's two general-purpose backends on
// every §8 kernel, back to back per kernel so drift hits both lanes of
// a ratio: the SSA scan (ssa) against iterated register coalescing
// (irc), each on a warm private arena. cmd/benchjson derives
// alloc_speedups (irc over ssa ns/op) and their geometric mean,
// speedup_ssa_geomean: the latency multiple the deadline ladder banks
// on when it steps a request down to the scan.
func BenchmarkAlloc(b *testing.B) {
	for _, k := range workloads.Kernels() {
		b.Run(k.Name+"/ssa", func(b *testing.B) {
			ar := new(scratch.Arena)
			benchPrimed(b, func() error {
				_, _, err := ssaalloc.Allocate(k.F, ssaalloc.Options{K: allocK, Scratch: ar})
				return err
			})
		})
		b.Run(k.Name+"/irc", func(b *testing.B) {
			ar := new(scratch.Arena)
			benchPrimed(b, func() error {
				_, _, err := irc.Allocate(k.F, irc.Options{K: allocK, Scratch: ar})
				return err
			})
		})
	}
}

// BenchmarkModschedPopulation compares the phased modulo-scheduling
// pipeline with the joint scheduling × allocation search over the
// first 300 loops of the seed-42 population at RegN=56, the widest
// sweep point where the phased remapper still leaves repairs on the
// table. It reuses the experiment driver, so the numbers match
// `vliwbench -joint`; cmd/benchjson folds the metrics into the
// modsched_joint summary of BENCH_modsched.json.
func BenchmarkModschedPopulation(b *testing.B) {
	cfg := experiments.DefaultVLIW()
	cfg.Loops = 300
	cfg.RegNs = []int{56}
	cfg.Joint = true
	var rep *experiments.VLIWReport
	for i := 0; i < b.N; i++ {
		var err error
		if rep, err = experiments.RunVLIW(cfg); err != nil {
			b.Fatal(err)
		}
	}
	row := rep.Rows[0]
	b.ReportMetric(float64(cfg.Loops), "loops")
	b.ReportMetric(float64(rep.Optimized), "optimized-loops")
	b.ReportMetric(float64(row.RegN), "regn")
	b.ReportMetric(float64(cfg.DiffN), "diffn")
	b.ReportMetric(float64(row.JointImproved), "improved-loops")
	b.ReportMetric(float64(row.SetLastRegs), "sets/phased")
	b.ReportMetric(float64(row.JointSetLastRegs), "sets/joint")
	b.ReportMetric(row.SpeedupOptimized, "speedup%/phased")
	b.ReportMetric(row.JointSpeedupOptimized, "speedup%/joint")
	b.ReportMetric(float64(row.JointNodes), "bb-nodes")
}

// BenchmarkModuloSchedule measures the software pipeliner on a
// high-pressure loop.
func BenchmarkModuloSchedule(b *testing.B) {
	loops := workloads.SPECLoops(42, 200)
	var big *modsched.Loop
	m := vliw.Default()
	for _, l := range loops {
		if big == nil || len(l.Ops) > len(big.Ops) {
			big = l
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := modsched.Compile(big, m, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineSim measures the cycle-level simulator on one
// kernel end to end.
func BenchmarkPipelineSim(b *testing.B) {
	k := workloads.KernelByName("crc32")
	out, asn, err := irc.Allocate(k.F, irc.Options{K: 8})
	if err != nil {
		b.Fatal(err)
	}
	m, err := pipeline.New(pipeline.LowEnd())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Run(out, asn, pipeline.RunOptions{Args: k.Args, OrigParams: k.F.Params, Mem: k.Mem}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSelective regenerates the §8.2 ablation: total
// cycles of always-direct, always-differential and selective policies.
func BenchmarkAblationSelective(b *testing.B) {
	var rows []experiments.SelectiveResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunSelective(lowEndCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	var base, diff, sel float64
	for _, r := range rows {
		base += float64(r.Baseline)
		diff += float64(r.Differential)
		sel += float64(r.Selective)
	}
	b.ReportMetric(base, "cycles/baseline")
	b.ReportMetric(diff, "cycles/differential")
	b.ReportMetric(sel, "cycles/selective")
}

// BenchmarkAblationAlternatives regenerates the §9.4 ablation: total
// set_last_reg counts under the three encoding variants.
func BenchmarkAblationAlternatives(b *testing.B) {
	var rows []experiments.AlternativeResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunAlternatives(lowEndCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	var sf, df, pi float64
	for _, r := range rows {
		sf += float64(r.SrcFirstPerField)
		df += float64(r.DstFirstPerField)
		pi += float64(r.SrcFirstPerInstr)
	}
	b.ReportMetric(sf, "sets/src-first-field")
	b.ReportMetric(df, "sets/dst-first-field")
	b.ReportMetric(pi, "sets/src-first-instr")
}

// BenchmarkAblationProfile regenerates the §4 profile-weighting
// ablation: dynamically executed set_last_reg instructions under
// static vs profiled adjacency weights.
func BenchmarkAblationProfile(b *testing.B) {
	var rows []experiments.ProfileResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunProfileGuided(lowEndCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	var ss, ps float64
	for _, r := range rows {
		ss += float64(r.StaticSets)
		ps += float64(r.ProfileSets)
	}
	b.ReportMetric(ss, "execsets/static")
	b.ReportMetric(ps, "execsets/profile")
}
