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
}

// NewFactory returns an irc.PickerFactory implementing differential
// select. For every allocation round it rebuilds the adjacency graph
// over the round's live ranges; when scoring a candidate color for a
// node it accounts for every live range coalesced into that node.
func NewFactory(p Params) irc.PickerFactory {
	return func(f *ir.Func, aliasOf func(int) int) irc.ColorPicker {
		g := adjacency.BuildVReg(f)
		n := f.NumRegs()
		return func(v int, okColors []int, colorOf func(int) int) int {
			members := membersOf(v, n, aliasOf)
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

func membersOf(v, n int, aliasOf func(int) int) []int {
	var out []int
	for u := 0; u < n; u++ {
		if aliasOf(u) == v {
			out = append(out, u)
		}
	}
	if len(out) == 0 {
		out = []int{v}
	}
	return out
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
