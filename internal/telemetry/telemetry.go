// Package telemetry is the compiler's observability layer: hierarchical
// phase spans (wall time, counters, key/value attributes) emitted as a
// tree per traced operation, plus a metrics registry (counters,
// gauges, histograms) for cross-compilation aggregates, which the
// span→metrics bridge (MetricsSink) fills from finished trees.
//
// The layer is built around two cost rules:
//
//   - Telemetry off must be free. A nil *Tracer produces nil *Span
//     values, and every Span method is nil-safe: the disabled path is a
//     single pointer comparison, no allocation, no formatting.
//   - Telemetry on must be cheap. Spans buffer in memory and are
//     rendered only when the root span ends; counters are flat slices
//     searched linearly (span counter sets are small). A tree
//     allocates per tree, not per span: its spans, child lists,
//     counters and attributes are carved from storage its root owns
//     (see spanStore).
//
// Spans are single-goroutine by design (a compilation is sequential);
// a Tracer and the metrics Registry are safe for concurrent use.
package telemetry

import "time"

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// CounterValue is one accumulated counter on a span. Values are
// float64 so passes can accumulate both event counts and fractional
// costs; integral values render without a decimal point.
type CounterValue struct {
	Name  string
	Value float64
}

// Span is one node of a trace tree: a named phase with a wall-time
// interval, ordered attributes, accumulated counters and child spans.
// All methods are nil-safe; a nil span (telemetry disabled) ignores
// every operation.
type Span struct {
	Name     string
	Start    time.Time
	Dur      time.Duration
	Attrs    []Attr
	Counters []CounterValue
	Children []*Span

	parent *Span
	store  *spanStore // the tree's storage, owned by its root
	ended  bool
}

// Tracer creates root spans and owns the sink the finished trees are
// emitted to. The zero Tracer is unusable; construct with New. A nil
// *Tracer is the disabled tracer: Start returns nil. Several
// goroutines may root trees on one Tracer at once: each tree's storage
// belongs to its root, not to the Tracer.
type Tracer struct {
	sink Sink
	now  func() time.Time
}

// New returns a tracer emitting finished root spans to sink. A nil
// sink discards them.
func New(sink Sink) *Tracer {
	if sink == nil {
		sink = MultiSink{}
	}
	return &Tracer{sink: sink, now: time.Now}
}

// NewWithClock is New with an injectable clock, for deterministic
// tests and replay.
func NewWithClock(sink Sink, now func() time.Time) *Tracer {
	t := New(sink)
	if now != nil {
		t.now = now
	}
	return t
}

// rootSpan is a root span and its tree's storage, allocated together.
type rootSpan struct {
	Span
	storage spanStore
}

// Start begins a root span. On a nil tracer it returns nil, and the
// entire span tree below it degenerates to no-ops.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	r := &rootSpan{}
	r.storage.init(t)
	r.Span = Span{Name: name, Start: t.now(), store: &r.storage}
	return &r.Span
}

// Child begins a sub-span of s. Returns nil when s is nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	st := s.store
	c := st.spans.one()
	*c = Span{Name: name, Start: st.tracer.now(), parent: s, store: st}
	s.Children = st.kids.append(s.Children, c)
	return c
}

// End closes the span, fixing its duration. Ending the root span emits
// the whole tree to the tracer's sink. End is idempotent; ending a nil
// span is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	t := s.store.tracer
	s.Dur = t.now().Sub(s.Start)
	if s.parent == nil {
		t.sink.Emit(s)
	}
}

// SetAttr sets (or replaces) a key/value attribute.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			s.Attrs[i].Value = value
			return
		}
	}
	s.Attrs = s.store.attrs.append(s.Attrs, Attr{Key: key, Value: value})
}

// Add accumulates delta into the named counter.
func (s *Span) Add(name string, delta int64) {
	s.AddFloat(name, float64(delta))
}

// AddFloat accumulates a fractional delta into the named counter.
func (s *Span) AddFloat(name string, delta float64) {
	if s == nil {
		return
	}
	for i := range s.Counters {
		if s.Counters[i].Name == name {
			s.Counters[i].Value += delta
			return
		}
	}
	s.Counters = s.store.counters.append(s.Counters, CounterValue{Name: name, Value: delta})
}

// Counter returns the accumulated value of a counter (0 if absent).
func (s *Span) Counter(name string) float64 {
	if s == nil {
		return 0
	}
	for i := range s.Counters {
		if s.Counters[i].Name == name {
			return s.Counters[i].Value
		}
	}
	return 0
}

// Attr returns the value of an attribute, or nil if absent.
func (s *Span) Attr(key string) any {
	if s == nil {
		return nil
	}
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			return s.Attrs[i].Value
		}
	}
	return nil
}

// Find returns the first descendant span (depth-first, including s)
// with the given name, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// Walk visits s and every descendant depth-first. depth is 0 for s.
func (s *Span) Walk(visit func(sp *Span, depth int)) {
	if s == nil {
		return
	}
	var rec func(sp *Span, d int)
	rec = func(sp *Span, d int) {
		visit(sp, d)
		for _, c := range sp.Children {
			rec(c, d+1)
		}
	}
	rec(s, 0)
}
