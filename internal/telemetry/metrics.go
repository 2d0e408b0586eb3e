package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a metrics store: named counters, gauges and histograms.
// There is no process-wide instance; each server, router or CLI run
// owns one, and compile code reaches it only through span trees folded
// by MetricsSink. All operations are safe for concurrent use;
// instrument handles are cached by the caller or re-looked-up cheaply
// (one RLock + map read).
type Registry struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a set-to-current-value metric.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates an integer-valued distribution in power-of-two
// buckets: bucket i counts observations v with 2^(i-1) <= v < 2^i
// (bucket 0 counts v <= 0 and v == 1 lands in bucket 1).
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [64]int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b > 63 {
		b = 63
	}
	return b
}

// BucketCount is one populated histogram bucket: Count observations
// with value <= Le (and greater than the previous bucket's Le). The
// bounds are the power-of-two bucket uppers, so a snapshot carries only
// the buckets that actually received samples.
type BucketCount struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time view of a histogram. Count, Sum,
// Min and Max predate the bucket export and stay stable for existing
// consumers; Buckets and the estimated quantiles are additive.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	// Buckets lists the populated power-of-two buckets in increasing
	// bound order (non-cumulative counts).
	Buckets []BucketCount `json:"buckets,omitempty"`
	// P50/P95/P99 are quantile estimates interpolated inside the
	// power-of-two buckets, clamped to [Min, Max]. 0 when empty.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Mean returns the average observation, or NaN when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return float64(s.Sum) / float64(s.Count)
}

// bucketBounds returns the value range a bucket index covers:
// bucket 0 is (-inf, 0], bucket i (i >= 1) is (2^(i-1)-1, 2^i-1] —
// i.e. values whose bit length is exactly i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 0
	}
	return float64(int64(1)<<(i-1)) - 1, float64(int64(1)<<uint(min64(i, 62))) - 1
}

func min64(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by locating the
// target rank's bucket and interpolating linearly inside it. The
// estimate is clamped to the observed [Min, Max], so p0 == Min and
// p100 == Max exactly. Returns NaN when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	cum := 0.0
	est := float64(s.Max)
	for _, b := range s.Buckets {
		n := float64(b.Count)
		if cum+n >= target {
			lo, hi := bucketBounds(bucketOf(b.Le))
			frac := 0.0
			if n > 0 {
				frac = (target - cum) / n
			}
			est = lo + (hi-lo)*frac
			break
		}
		cum += n
	}
	if est < float64(s.Min) {
		est = float64(s.Min)
	}
	if est > float64(s.Max) {
		est = float64(s.Max)
	}
	return est
}

// Snapshot reads the histogram's current state: counts, bounds,
// populated buckets and estimated quantiles. The service's admission
// controller derives Retry-After hints from it without paying for a
// whole-registry snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot { return h.snapshot() }

// snapshot reads the histogram under its lock.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, n := range h.buckets {
		if n > 0 {
			_, hi := bucketBounds(i)
			s.Buckets = append(s.Buckets, BucketCount{Le: int64(hi), Count: n})
		}
	}
	h.mu.Unlock()
	if s.Count > 0 {
		s.P50 = s.Quantile(0.50)
		s.P95 = s.Quantile(0.95)
		s.P99 = s.Quantile(0.99)
	}
	return s
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counts[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counts[name]; c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// LabeledName renders a metric name with label pairs in the
// conventional `name{k="v",k2="v2"}` form, labels sorted by key so the
// same label set always yields the same instrument. kv alternates
// key, value; a trailing odd key is ignored. With no labels it returns
// name unchanged.
func LabeledName(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`="`)
		sb.WriteString(p.v)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// SplitLabels is the inverse of LabeledName: it separates the base
// metric name from the rendered label block ("" when unlabeled).
func SplitLabels(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// CounterL returns the counter for a labeled variant of name, e.g.
// CounterL("requests", "scheme", "ospill") is the instrument
// `requests{scheme="ospill"}`. Labeled variants are ordinary registry
// entries: they appear in Snapshot/WriteText under their full labeled
// name, and the Prometheus exposition renders them as one series per
// label set.
func (r *Registry) CounterL(name string, kv ...string) *Counter {
	return r.Counter(LabeledName(name, kv...))
}

// GaugeL is Gauge for a labeled variant; see CounterL.
func (r *Registry) GaugeL(name string, kv ...string) *Gauge {
	return r.Gauge(LabeledName(name, kv...))
}

// HistogramL is Histogram for a labeled variant; see CounterL.
func (r *Registry) HistogramL(name string, kv ...string) *Histogram {
	return r.Histogram(LabeledName(name, kv...))
}

// Snapshot is a stable, sorted view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counts)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for n, c := range r.counts {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.snapshot()
	}
	return s
}

// WriteText renders the registry sorted by metric name, one line each:
//
//	counter   diffra.compiles            7
//	histogram diffra.compile_us          count=7 sum=913 min=88 max=204 mean=130.4
func (r *Registry) WriteText(w io.Writer) {
	s := r.Snapshot()
	for _, n := range sortedKeys(s.Counters) {
		fmt.Fprintf(w, "counter   %-32s %d\n", n, s.Counters[n])
	}
	for _, n := range sortedKeys(s.Gauges) {
		fmt.Fprintf(w, "gauge     %-32s %d\n", n, s.Gauges[n])
	}
	hn := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		hn = append(hn, n)
	}
	sort.Strings(hn)
	for _, n := range hn {
		h := s.Histograms[n]
		fmt.Fprintf(w, "histogram %-32s count=%d sum=%d min=%d max=%d mean=%.1f p50=%.0f p95=%.0f p99=%.0f\n",
			n, h.Count, h.Sum, h.Min, h.Max, h.Mean(), h.P50, h.P95, h.P99)
	}
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
