package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// minSamples is the fewest latency samples the timed phase takes; it
	// runs past dur until it has them.
	minSamples int
	// spans is the file the traced run writes its spans to.
	spans string
}

// metric is one reported number and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run performs one invocation and writes a readable report to out. An
// error means nothing could be measured (the oracle or set-up failed);
// a failure while measuring is counted and makes the result incorrect.
func run(cfg config, out io.Writer) (*result, error) {
	runtime.GOMAXPROCS(maxProcs)
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	inputs, err := buildInputs(w)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d go=%s clients=%d workers=%d remap_workers=1 spill_workers=1\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), clients, serverWorkers)
	fmt.Fprintf(out, "workload %s seed %d distinct_inputs %d trace %t\n", w.name, cfg.seed, len(inputs), cfg.trace)
	start := time.Now()
	if err := checkInputs(inputs); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	fmt.Fprintf(out, "oracle checked %d inputs in %.2fs\n", len(inputs), time.Since(start).Seconds())
	var exact replicaStats
	if cfg.trace {
		if exact, err = guardReplica(inputs); err != nil {
			return nil, err
		}
	}
	nm := newNamer(w.miss, cfg.seed)
	r, setupSecs, err := setupRigs(w, inputs, nm, cfg.setups)
	if err != nil {
		return nil, err
	}
	defer r.close()
	fmt.Fprintf(out, "setup_s of each set-up %.4f\n", setupSecs)

	res := &result{Metrics: map[string]metric{}}
	var problems []string
	if !cfg.trace {
		st := r.timed(inputs, nm, cfg.seed, cfg.dur, cfg.minSamples)
		fmt.Fprintf(out, "timed %.3fs, %d latency samples\n", st.elapsed.Seconds(), st.lat.n)
		fmt.Fprintf(out, "slowdown over the reference of each slice %.3f\n", st.slowdowns)
		fmt.Fprintf(out, "unscaled throughput_rps of each slice %.4g\n", st.sliceRPS)
		fmt.Fprintf(out, "unscaled throughput_rps %.4g latency_p50_ms %.4g latency_p99_ms %.4g cpu_ms_per_req %.4g\n",
			float64(st.lat.n)/st.elapsed.Seconds(), st.lat.quantile(0.50), st.lat.quantile(0.99), perReq(st.cpu.Seconds()*1e3, st.attempted))
		problems = st.problems(w, cfg.minSamples)
		res.Attempted, res.Failed = st.attempted, st.failed
		endToEnd(res.Metrics, st, setupSecs, inputs)
	} else {
		// The first half is an untraced timed phase for the runtime and
		// cache counters, the second half the traced phase.
		st := r.timed(inputs, nm, cfg.seed, cfg.dur/2, 0)
		problems = st.problems(w, 0)
		probe, err := newProbe(w, inputs, nm)
		if err != nil {
			return nil, err
		}
		spans, tst := r.traced(probe, w, inputs, nm, cfg.seed, cfg.dur/2)
		if tst.failed > 0 {
			problems = append(problems, fmt.Sprintf("%d of %d traced requests failed; first: %v", tst.failed, tst.attempted, tst.firstErr))
		}
		lt := reduceSpans(spans)
		problems = append(problems, premise(w, lt)...)
		res.Attempted, res.Failed = st.attempted+tst.attempted, st.failed+tst.failed
		perLayer(res.Metrics, st, lt, exact)
		if err := writeSpans(cfg.spans, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "traced %.3fs, %d requests, %d spans written to %s\n", tst.elapsed.Seconds(), tst.attempted, len(spans), cfg.spans)
	}

	q := sumExpected(inputs)
	fmt.Fprintf(out, "quality over the distinct inputs: instrs %d spill_instrs %d set_last_regs %d cycles %d\n",
		q.instrs, q.spillInstrs, q.setLastRegs, q.cycles)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "metric %s %v %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Fprintf(out, "metric error_rate %v ratio\n", perReq(float64(res.Failed), res.Attempted))
	for _, p := range problems {
		fmt.Fprintf(out, "FAIL %s\n", p)
	}
	res.Correct = len(problems) == 0
	return res, nil
}

// endToEnd fills the metrics a caller of the service sees. The time
// metrics are scaled to the reference speed (calib.go).
func endToEnd(m map[string]metric, st loadStats, setupSecs []float64, inputs []*input) {
	q := sumExpected(inputs)
	m["throughput_rps"] = metric{float64(st.lat.n) / st.scaledElapsed.Seconds(), "1/s"}
	m["latency_p50_ms"] = metric{st.scaledLat.quantile(0.50), "ms"}
	m["latency_p99_ms"] = metric{st.scaledLat.quantile(0.99), "ms"}
	m["cpu_ms_per_req"] = metric{perReq(st.scaledCPU.Seconds()*1e3, st.attempted), "ms"}
	m["allocs_per_req"] = metric{perReq(float64(st.mallocs), st.attempted), "count"}
	m["alloc_bytes_per_req"] = metric{perReq(float64(st.allocBytes), st.attempted), "B"}
	m["heap_retained_mb"] = metric{float64(st.heapInuse) / (1 << 20), "MB"}
	m["setup_s"] = metric{median(setupSecs), "s"}
	m["set_last_regs"] = metric{float64(q.setLastRegs), "count"}
	m["spill_instrs"] = metric{float64(q.spillInstrs), "count"}
	m["cycles"] = metric{float64(q.cycles), "count"}
}

// perLayer fills the traced run's metrics: layer times from the traced
// phase, runtime and cache counters from the untraced timed phase, and
// exact counts summed over the distinct inputs.
func perLayer(m map[string]metric, timed loadStats, lt layerTimes, ex replicaStats) {
	us := func(name string) float64 { return median(lt.perReq[name]) }
	m["service.http_us"] = metric{median(lt.http), "us"}
	m["ir.parse_us"] = metric{us("ir.parse"), "us"}
	m["service.cachekey_us"] = metric{us("service.cachekey"), "us"}
	m["cache.lookup_us"] = metric{median(lt.lookup), "us"}
	m["cache.hit_ratio"] = metric{timed.hitRatio(), "ratio"}
	m["compile.us"] = metric{us("compile"), "us"}
	m["compile.unattributed_pct"] = metric{median(lt.unattributed), "%"}
	for _, s := range stages {
		m[s.metric] = metric{us(s.span), "us"}
	}
	m["remap.share_pct"] = metric{pct(lt.sum["remap"], lt.sum["compile"]), "%"}
	m["remap.evals"] = metric{float64(ex.remapEvals), "count"}
	m["remap.cost"] = metric{ex.remapCost, "cost"}
	m["ilp.nodes"] = metric{float64(ex.ilpNodes), "count"}
	m["ilp.pruned_ratio"] = metric{pct(float64(ex.ilpPruned), float64(ex.ilpNodes)) / 100, "ratio"}
	m["diffcoal.coalesced_per_attempt"] = metric{pct(float64(ex.coalesced), float64(ex.attempts)) / 100, "ratio"}
	m["diffsel.recolored"] = metric{float64(ex.recolored), "count"}
	m["diffenc.join_sets"] = metric{float64(ex.joinSets), "count"}
	m["diffenc.range_sets"] = metric{float64(ex.rangeSets), "count"}
	m["runtime.gc_per_kreq"] = metric{1000 * perReq(float64(timed.gcs), timed.attempted), "1/kreq"}
	m["runtime.gc_pause_us_per_req"] = metric{perReq(timed.gcPause.Seconds()*1e6, timed.attempted), "us"}
}

func perReq(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// latHist counts latencies in buckets whose bounds grow by a factor of
// 1.005, from 1us to about 100s. It has a fixed size, so it can be
// allocated before a timed phase and hold any number of samples.
type latHist struct {
	n      int64
	counts [histBuckets]int64
}

const histBuckets = 3700

var histLogStep = math.Log(1.005)

// histBound is the upper bound of bucket i in microseconds; bucket 0
// holds everything up to 1us.
func histBound(i int) float64 { return math.Exp(float64(i) * histLogStep) }

func (h *latHist) add(d time.Duration) {
	i := 0
	if us := float64(d) / 1e3; us > 1 {
		i = min(int(math.Log(us)/histLogStep)+1, histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// mergeScaled adds o's samples divided by f, moving each bucket by the
// whole number of buckets nearest to log(f).
func (h *latHist) mergeScaled(o *latHist, f float64) {
	shift := int(math.Round(math.Log(f) / histLogStep))
	for i, c := range o.counts {
		h.counts[min(max(i-shift, 0), histBuckets-1)] += c
	}
	h.n += o.n
}

// quantile is the p-quantile in milliseconds: the sample of rank p*n,
// placed by linear interpolation within its bucket, so it is off by at
// most half a percent.
func (h *latHist) quantile(p float64) float64 {
	rank, seen := p*float64(h.n), 0.0
	for i, c := range h.counts {
		if c == 0 || seen+float64(c) < rank {
			seen += float64(c)
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = histBound(i - 1)
		}
		return (lo + (rank-seen)/float64(c)*(histBound(i)-lo)) / 1e3
	}
	return 0
}
