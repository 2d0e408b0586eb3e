package telemetry

import (
	"encoding/json"
	"io"
	"strings"
	"sync"
)

// Sink consumes finished root spans. Emit is called once per root
// span, after the whole tree under it has ended.
type Sink interface {
	Emit(root *Span)
}

// JSONSink renders each span as one JSON object per line (JSON-lines),
// depth-first, so the stream can be consumed incrementally and grepped
// by span path.
type JSONSink struct {
	W io.Writer

	mu sync.Mutex
}

// spanRecord is the JSON-lines shape of one span.
type spanRecord struct {
	Name     string             `json:"name"`
	Path     string             `json:"path"`
	Depth    int                `json:"depth"`
	StartUS  int64              `json:"start_us"`
	DurUS    int64              `json:"dur_us"`
	Attrs    map[string]any     `json:"attrs,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// Emit writes one line per span in the tree.
func (j *JSONSink) Emit(root *Span) {
	j.mu.Lock()
	defer j.mu.Unlock()
	enc := json.NewEncoder(j.W)
	base := root.Start
	var path []string
	var rec func(sp *Span, depth int)
	rec = func(sp *Span, depth int) {
		path = append(path, sp.Name)
		r := spanRecord{
			Name:    sp.Name,
			Path:    strings.Join(path, "/"),
			Depth:   depth,
			StartUS: sp.Start.Sub(base).Microseconds(),
			DurUS:   sp.Dur.Microseconds(),
		}
		if len(sp.Attrs) > 0 {
			r.Attrs = make(map[string]any, len(sp.Attrs))
			for _, a := range sp.Attrs {
				r.Attrs[a.Key] = a.Value
			}
		}
		if len(sp.Counters) > 0 {
			r.Counters = make(map[string]float64, len(sp.Counters))
			for _, c := range sp.Counters {
				r.Counters[c.Name] = c.Value
			}
		}
		enc.Encode(r)
		for _, c := range sp.Children {
			rec(c, depth+1)
		}
		path = path[:len(path)-1]
	}
	rec(root, 0)
}

// MultiSink fans one tree out to several sinks.
type MultiSink []Sink

// Emit forwards to every sink in order.
func (m MultiSink) Emit(root *Span) {
	for _, s := range m {
		s.Emit(root)
	}
}

// CollectSink retains emitted roots in memory; intended for tests and
// for programmatic inspection of a compilation's trace.
type CollectSink struct {
	mu    sync.Mutex
	Roots []*Span
}

// Emit appends the root.
func (c *CollectSink) Emit(root *Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Roots = append(c.Roots, root)
}

// Last returns the most recently emitted root, or nil.
func (c *CollectSink) Last() *Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.Roots) == 0 {
		return nil
	}
	return c.Roots[len(c.Roots)-1]
}
