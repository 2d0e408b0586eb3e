// Package diffsel implements differential select (paper §6): the
// select stage of a graph-coloring register allocator is modified so
// that, when several colors are legal for a live range, it picks the
// one minimizing the differential-encoding cost on the live-range
// adjacency graph (condition (3) violations, weighted by access
// frequency).
//
// It plugs into the irc allocator through its PickerFactory hook and
// is also reused by differential coalesce (§7), whose inner coloring
// loop invokes the same cost-minimizing selection.
package diffsel

import (
	"diffra/internal/adjacency"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/scratch"
	"diffra/internal/telemetry"
)

// Params carries the encoding parameters the cost function needs.
type Params struct {
	RegN  int
	DiffN int
	// Trace, when non-nil, accumulates picker counters (picks,
	// candidates scored, total chosen cost) across all rounds.
	Trace *telemetry.Span
	// Cancel, when non-nil, is polled by RefineProfile once per round
	// and every refineCancelStride vregs; returning true stops the
	// refinement with the moves made so far, each of them legal. Nil
	// never cancels.
	Cancel func() bool
	// Scratch, when non-nil, supplies the arena RefineProfile carves
	// its liveness from, without resetting it; nothing carved outlives
	// the call. Nil: a private arena.
	Scratch *scratch.Arena
}

// NewFactory returns an irc.PickerFactory implementing differential
// select. For every allocation round it rebuilds the adjacency graph
// over the round's live ranges; when scoring a candidate color for a
// node it accounts for every live range coalesced into that node. The
// round's coalescing classes are listed once, on its first pick: IRC
// picks only while assigning colors, after the round's coalescing is
// final.
func NewFactory(p Params) irc.PickerFactory {
	return func(f *ir.Func, aliasOf func(int) int) irc.ColorPicker {
		g := adjacency.BuildVReg(f)
		n := f.NumRegs()
		var cl classes
		return func(v int, okColors []int, colorOf func(int) int) int {
			if cl.off == nil {
				cl.build(n, aliasOf)
			}
			members := cl.of(v)
			bestColor, bestCost := okColors[0], 0.0
			for i, c := range okColors {
				cost := PickCost(g, members, v, c, colorOf, aliasOf, p)
				if i == 0 || cost < bestCost {
					bestColor, bestCost = c, cost
				}
			}
			p.Trace.Add("picks", 1)
			p.Trace.Add("candidates", int64(len(okColors)))
			p.Trace.AddFloat("chosen_cost", bestCost)
			return bestColor
		}
	}
}

// classes lists the coalescing classes of n vregs: the members of the
// class represented by r, ascending, are idx[off[r]:off[r+1]].
type classes struct {
	off, idx []int
}

// build sorts the vregs by representative (a counting sort), asking
// aliasOf once per vreg.
func (c *classes) build(n int, aliasOf func(int) int) {
	buf := make([]int, 3*n+1)
	c.off, c.idx = buf[:n+1], buf[n+1:2*n+1]
	rep := buf[2*n+1:]
	for u := range rep {
		rep[u] = aliasOf(u)
		c.off[rep[u]]++
	}
	for r := 1; r <= n; r++ {
		c.off[r] += c.off[r-1]
	}
	// off[r] is now the end of r's class; filling from the last vreg
	// down leaves it at the start, with the members ascending.
	for u := n - 1; u >= 0; u-- {
		c.off[rep[u]]--
		c.idx[c.off[rep[u]]] = u
	}
}

// of returns the members of v's class, or just v when no vreg names v
// as its representative.
func (c *classes) of(v int) []int {
	if m := c.idx[c.off[v]:c.off[v+1]]; len(m) > 0 {
		return m
	}
	return []int{v}
}

// PickCost is differential select's score, shared by the picker, the
// refinement post-pass, the SSA backend's tiebreak and differential
// coalesce: the weight of the adjacency edges incident to self's
// coalescing class that would violate condition (3) if the class took
// color. g is the live-range adjacency graph. members must list the
// complete class (every u with aliasOf(u) == self, plus self). Edges to
// uncolored neighbors are free: their color will be chosen later with
// this node's choice already visible. Edges between two members cost
// nothing (difference 0).
//
// Only the members' incidence slices are walked — an edge with no
// endpoint in the class cannot contribute — so a probe costs
// O(deg(members)) rather than O(E). An edge between two members
// appears in both incidence lists but both visits skip it (in-class,
// difference 0), so nothing is double counted.
func PickCost(g *adjacency.CSR, members []int, self, color int, colorOf func(int) int, aliasOf func(int) int, p Params) float64 {
	inClass := func(u int) bool { return u == self || aliasOf(u) == self }
	cost := 0.0
	for _, m := range members {
		if m >= g.N {
			continue
		}
		from, to, w := g.Inc(m)
		for k := range w {
			if f := int(from[k]); f == m {
				// Edge m -> to: member is the source.
				if t := int(to[k]); !inClass(t) {
					if tc := colorOf(t); tc >= 0 && !adjacency.Satisfied(color, tc, p.RegN, p.DiffN) {
						cost += w[k]
					}
				}
			} else if !inClass(f) {
				// Edge from -> m: member is the target.
				if fc := colorOf(f); fc >= 0 && !adjacency.Satisfied(fc, color, p.RegN, p.DiffN) {
					cost += w[k]
				}
			}
		}
	}
	return cost
}
