package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"diffra"
	"diffra/internal/adjacency"
	"diffra/internal/diffcoal"
	"diffra/internal/diffenc"
	"diffra/internal/diffsel"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/ospill"
	"diffra/internal/regalloc"
	"diffra/internal/remap"
	"diffra/internal/scratch"
	"diffra/internal/service"
	"diffra/internal/ssaalloc"
)

// compileTimeout is the service's default request deadline; the traced
// facade compile runs under it like a served one.
const compileTimeout = 30 * time.Second

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public function. Spans of one request share Req;
// Parent is the ID of the enclosing span of the same client, -1 at a
// request's root.
type span struct {
	Client int    `json:"client"`
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps one client's spans in memory until the run ends.
type tracer struct {
	client int
	epoch  time.Time
	req    int64
	spans  []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{
		Client: t.client, Req: t.req, ID: len(t.spans), Parent: parent,
		Name: name, Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.epoch)) }

// stages are the compile stages the replica times, with their
// per-layer metrics. Together they should account for the facade's
// compile time; compile.unattributed_pct reports the rest.
var stages = []struct{ span, metric string }{
	{"irc", "irc.us"},
	{"ssaalloc", "ssaalloc.us"},
	{"ospill", "ospill.us"},
	{"adjacency", "adjacency.us"},
	{"remap", "remap.us"},
	{"diffsel.refine", "diffsel.refine_us"},
	{"regalloc.verify", "regalloc.verify_us"},
	{"diffenc.encode", "diffenc.encode_us"},
	{"diffenc.check", "diffenc.check_us"},
}

// replicaStats are the counts the stages of one compile report, or
// their sums over a distinct set.
type replicaStats struct {
	spillInstrs, setLastRegs int
	ilpNodes, ilpPruned      int
	coalesced, attempts      int
	remapEvals               int
	remapCost                float64
	recolored                int
	joinSets, rangeSets      int
}

func (s *replicaStats) add(o replicaStats) {
	s.spillInstrs += o.spillInstrs
	s.setLastRegs += o.setLastRegs
	s.ilpNodes += o.ilpNodes
	s.ilpPruned += o.ilpPruned
	s.coalesced += o.coalesced
	s.attempts += o.attempts
	s.remapEvals += o.remapEvals
	s.remapCost += o.remapCost
	s.recolored += o.recolored
	s.joinSets += o.joinSets
	s.rangeSets += o.rangeSets
}

// replicate compiles f one public call at a time, in the order
// diffra.CompileFuncContext makes the same calls: the backend's
// Allocate, then adjacency.BuildReg and remap.Auto, then diffsel.Refine,
// regalloc.Verify, diffenc.EncodeScratch and diffenc.Check. Each call
// is a span under parent. Callers compare the counts with the facade's,
// so the stage timings cannot drift from the code they describe.
func replicate(t *tracer, parent int, f *ir.Func, o diffra.Options, ar *scratch.Arena) (replicaStats, error) {
	var (
		rs  replicaStats
		out *ir.Func
		asn *regalloc.Assignment
		err error
	)
	switch o.Alloc {
	case diffra.AllocSSA:
		sp := t.begin("ssaalloc", parent)
		var diff diffsel.Params
		if o.Scheme == diffra.Select || o.Scheme == diffra.Coalesce {
			diff = diffsel.Params{RegN: o.RegN, DiffN: o.DiffN}
		}
		out, asn, err = ssaalloc.Allocate(f, ssaalloc.Options{K: o.RegN, Diff: diff, Scratch: ar})
		if err == nil && out == f {
			out = f.Clone()
		}
		t.end(sp)
	case diffra.AllocOSpill:
		sp := t.begin("ospill", parent)
		if o.Scheme == diffra.Coalesce {
			var st *diffcoal.Stats
			out, asn, st, err = diffcoal.Allocate(f, diffcoal.Options{RegN: o.RegN, DiffN: o.DiffN, SpillWorkers: o.SpillWorkers})
			if st != nil {
				rs.ilpNodes, rs.ilpPruned = st.Spill.ILPNodes, st.Spill.ILPPruned
				rs.coalesced, rs.attempts = st.Coalesced, st.Attempts
			}
		} else {
			var st *ospill.Stats
			out, asn, st, err = ospill.Allocate(f, ospill.Options{K: o.RegN, Workers: o.SpillWorkers})
			if st != nil {
				rs.ilpNodes, rs.ilpPruned = st.ILPNodes, st.ILPPruned
			}
		}
		t.end(sp)
	default:
		sp := t.begin("irc", parent)
		opts := irc.Options{K: o.RegN, Scratch: ar}
		if o.Scheme == diffra.Select {
			opts.PickerFactory = diffsel.NewFactory(diffsel.Params{RegN: o.RegN, DiffN: o.DiffN})
		}
		out, asn, err = irc.Allocate(f, opts)
		t.end(sp)
	}
	if err != nil {
		return rs, err
	}
	regOf := func(r ir.Reg) int { return asn.Color[r] }
	differential := o.Scheme == diffra.Remapping || o.Scheme == diffra.Select || o.Scheme == diffra.Coalesce
	if differential {
		sp := t.begin("adjacency", parent)
		g := adjacency.BuildReg(out, regOf, o.RegN)
		t.end(sp)
		sp = t.begin("remap", parent)
		perm := remap.Auto(g, remap.Options{
			RegN: o.RegN, DiffN: o.DiffN, Restarts: o.Restarts, Seed: 1, Workers: o.RemapWorkers,
		})
		t.end(sp)
		rs.remapEvals, rs.remapCost = perm.Evaluated, perm.Cost
		for v, c := range asn.Color {
			if c >= 0 {
				asn.Color[v] = perm.Perm[c]
			}
		}
		if o.Scheme != diffra.Remapping {
			sp = t.begin("diffsel.refine", parent)
			rs.recolored = diffsel.Refine(out, asn, diffsel.Params{RegN: o.RegN, DiffN: o.DiffN})
			t.end(sp)
		}
	}
	sp := t.begin("regalloc.verify", parent)
	err = regalloc.Verify(out, asn)
	t.end(sp)
	if err != nil {
		return rs, err
	}
	if differential {
		cfg := diffenc.Config{RegN: o.RegN, DiffN: o.DiffN}
		ar.Reset()
		sp = t.begin("diffenc.encode", parent)
		enc, err := diffenc.EncodeScratch(out, regOf, cfg, ar)
		t.end(sp)
		if err != nil {
			return rs, err
		}
		sp = t.begin("diffenc.check", parent)
		err = diffenc.Check(out, regOf, cfg, enc)
		t.end(sp)
		if err != nil {
			return rs, err
		}
		enc.ApplyToIR(out)
		rs.setLastRegs, rs.joinSets, rs.rangeSets = enc.Cost(), enc.JoinSets, enc.RangeSets()
	}
	rs.spillInstrs, _ = regalloc.SpillStats(out)
	return rs, nil
}

// drift reports a replica whose counts differ from the facade's.
func drift(in *input, rs replicaStats, spillInstrs, setLastRegs int) error {
	if rs.spillInstrs == spillInstrs && rs.setLastRegs == setLastRegs {
		return nil
	}
	return fmt.Errorf("%s: replica drifted from the facade: spill_instrs %d vs %d, set_last_regs %d vs %d",
		in, rs.spillInstrs, spillInstrs, rs.setLastRegs, setLastRegs)
}

// guardReplica replicates the compile of every distinct input, requires
// the replica's spill_instrs and set_last_regs to equal the facade's,
// and returns the stage counts summed over the distinct set: exact
// counts that depend on neither the seed nor timing.
func guardReplica(inputs []*input) (replicaStats, error) {
	var (
		sum replicaStats
		ar  scratch.Arena
	)
	t := &tracer{epoch: time.Now()}
	for _, in := range inputs {
		f, err := ir.Parse(in.source(in.kernel.F.Name))
		if err != nil {
			return sum, fmt.Errorf("%s: %w", in, err)
		}
		opts, err := in.options()
		if err != nil {
			return sum, fmt.Errorf("%s: %w", in, err)
		}
		ar.Reset()
		rs, err := replicate(t, -1, f, opts, &ar)
		t.spans = t.spans[:0]
		if err != nil {
			return sum, fmt.Errorf("%s: replica: %w", in, err)
		}
		if err := drift(in, rs, in.want.spillInstrs, in.want.setLastRegs); err != nil {
			return sum, err
		}
		sum.add(rs)
	}
	return sum, nil
}

// newProbe builds the in-process twin of the server under test, which
// the traced run sends every request to a second time. On the replay
// workload it is warmed with the distinct set, so it hits where the
// HTTP server hits.
func newProbe(w workload, inputs []*input, nm *namer) (*service.Server, error) {
	probe, err := newServer()
	if err != nil {
		return nil, err
	}
	if w.miss {
		return probe, nil
	}
	for _, in := range inputs {
		name := nm.name(in)
		if err := in.check(probe.Compile(context.Background(), in.request(name)), http.StatusOK, name); err != nil {
			return nil, fmt.Errorf("probe warm-up: %w", err)
		}
	}
	return probe, nil
}

// tracedClient is one load generator of the traced run. A request goes
// over HTTP as in the timed run; then the benchmark repeats it
// in-process, one layer at a time, against a probe server that sees no
// other traffic.
type tracedClient struct {
	rig   *rig
	c     int
	probe *service.Server
	miss  bool
	nm    *namer
	reqs  *atomic.Int64
	tr    tracer
	arena scratch.Arena
}

func (tc *tracedClient) serve(in *input) error {
	t := &tc.tr
	t.req = tc.reqs.Add(1)
	root := t.begin("request", -1)
	defer t.end(root)
	name := tc.nm.name(in)
	req := in.request(name)
	body := tc.rig.body(tc.c, in, name)
	sp := t.begin("http", root)
	resp, status, err := tc.rig.post(tc.c, body)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", in, err)
	}
	if err := in.check(resp, status, name); err != nil {
		return err
	}

	// The probe misses where the HTTP server missed: it has never seen a
	// miss workload's fresh name, and it was warmed with the replay
	// workload's distinct set.
	ctx := context.Background()
	sp = t.begin("service.compile", root)
	presp := tc.probe.Compile(ctx, req)
	t.end(sp)
	if err := in.check(presp, http.StatusOK, name); err != nil {
		return err
	}
	if presp.Cached == tc.miss {
		return fmt.Errorf("%s: probe cached=%t on a workload with miss=%t", in, presp.Cached, tc.miss)
	}
	if tc.miss {
		sp = t.begin("service.compile_hit", root)
		presp = tc.probe.Compile(ctx, req)
		t.end(sp)
		if err := in.check(presp, http.StatusOK, name); err != nil {
			return err
		}
		if !presp.Cached {
			return fmt.Errorf("%s: probe missed a repeated request", in)
		}
	}

	// Parse and key right after the hit, on the same warm caches, so
	// that subtracting them from it leaves the lookup.
	sp = t.begin("ir.parse", root)
	f, err := ir.Parse(req.IR)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", in, err)
	}
	opts, err := in.options()
	if err != nil {
		return fmt.Errorf("%s: %w", in, err)
	}
	sp = t.begin("service.cachekey", root)
	service.CacheKey(f, opts, false, false)
	t.end(sp)
	if !tc.miss {
		return nil
	}

	cctx, cancel := context.WithTimeout(ctx, compileTimeout)
	defer cancel()
	opts.Scratch = &tc.arena
	sp = t.begin("compile", root)
	res, err := diffra.CompileFuncContext(cctx, f, opts)
	t.end(sp)
	tc.arena.Reset()
	if err != nil {
		return fmt.Errorf("%s: %w", in, err)
	}
	sp = t.begin("replica", root)
	rs, err := replicate(t, sp, f, opts, &tc.arena)
	t.end(sp)
	tc.arena.Reset()
	if err != nil {
		return fmt.Errorf("%s: replica: %w", in, err)
	}
	return drift(in, rs, res.SpillInstrs, res.SetLastRegs)
}

// traced runs the traced phase and returns every client's spans.
func (r *rig) traced(probe *service.Server, w workload, inputs []*input, nm *namer, seed int64, dur time.Duration) ([]span, loadStats) {
	var reqs atomic.Int64
	epoch := time.Now()
	tcs := make([]*tracedClient, clients)
	for c := range tcs {
		tcs[c] = &tracedClient{
			rig: r, c: c, probe: probe, miss: w.miss, nm: nm,
			reqs: &reqs, tr: tracer{client: c, epoch: epoch},
		}
	}
	st := closedLoop(inputs, newWalk(seed, len(inputs)), dur, 0, func(c int, in *input) (time.Duration, error) {
		start := time.Now()
		err := tcs[c].serve(in)
		return time.Since(start), err
	})
	var spans []span
	for _, tc := range tcs {
		spans = append(spans, tc.tr.spans...)
	}
	return spans, st
}

// layerTimes are the traced phase's layer times, in microseconds.
type layerTimes struct {
	// perReq holds, per span name, one value for every request that ran
	// that layer; sum holds their totals.
	perReq map[string][]float64
	sum    map[string]float64
	// http is the loopback round trip minus the in-process
	// Server.Compile of the same request, and lookup is Server.Compile
	// on a hit minus parse and cache key, both per request.
	// unattributed is the share of the facade's compile time that the
	// stages do not cover, in percent, per request that compiled.
	http, lookup, unattributed []float64
}

func reduceSpans(spans []span) layerTimes {
	type reqKey struct {
		client int
		req    int64
	}
	byReq := map[reqKey]map[string]float64{}
	var order []reqKey
	for _, s := range spans {
		k := reqKey{s.Client, s.Req}
		m := byReq[k]
		if m == nil {
			m = map[string]float64{}
			byReq[k] = m
			order = append(order, k)
		}
		m[s.Name] += float64(s.End-s.Start) / 1e3
	}
	lt := layerTimes{perReq: map[string][]float64{}, sum: map[string]float64{}}
	for _, k := range order {
		m := byReq[k]
		for name, us := range m {
			lt.perReq[name] = append(lt.perReq[name], us)
			lt.sum[name] += us
		}
		lt.http = append(lt.http, m["http"]-m["service.compile"])
		hit, ok := m["service.compile_hit"]
		if !ok {
			hit = m["service.compile"]
		}
		lt.lookup = append(lt.lookup, hit-m["ir.parse"]-m["service.cachekey"])
		if c := m["compile"]; c > 0 {
			staged := 0.0
			for _, s := range stages {
				staged += m[s.span]
			}
			lt.unattributed = append(lt.unattributed, 100*(c-staged)/c)
		}
	}
	return lt
}

// premise checks from the traced phase that each miss workload
// exercises what it exists for: remap dominates miss-remap, while on
// miss-spill remap is minor and exact spilling is the largest stage.
func premise(w workload, lt layerTimes) []string {
	share := pct(lt.sum["remap"], lt.sum["compile"])
	var p []string
	switch w.name {
	case "miss-remap":
		if share < 80 {
			p = append(p, fmt.Sprintf("premise: remap is %.1f%% of compile time, want at least 80%%", share))
		}
	case "miss-spill":
		if share > 5 {
			p = append(p, fmt.Sprintf("premise: remap is %.1f%% of compile time, want at most 5%%", share))
		}
		for _, s := range stages {
			if lt.sum[s.span] > lt.sum["ospill"] {
				p = append(p, fmt.Sprintf("premise: %s took %.0fus, more than ospill's %.0fus", s.span, lt.sum[s.span], lt.sum["ospill"]))
			}
		}
	}
	return p
}

// writeSpans writes the spans as JSON lines, once, after measuring.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
