package diffsel

import (
	"diffra/internal/adjacency"
	"diffra/internal/ir"
	"diffra/internal/liveness"
	"diffra/internal/regalloc"
)

// Refine runs a local search over an allocated function: each live
// range in turn is moved to the legal color (no interference-neighbor
// conflict) of minimal adjacency cost, repeating until a fixpoint.
// This strictly generalizes the register-level remapping of §5 — it
// permutes individual live ranges rather than whole register numbers —
// and composes with any allocator, so the experiments apply it as the
// post-pass of the select and coalesce schemes (§3 allows stacking the
// post-pass on approaches 2 and 3). The assignment is updated in
// place; the function's code is untouched, so coloring validity is
// preserved by construction and rechecked by the caller's verifier.
func Refine(f *ir.Func, asn *regalloc.Assignment, p Params) int {
	return RefineProfile(f, asn, p, nil)
}

// refineCancelStride is how many vregs RefineProfile visits between
// Params.Cancel polls within a round.
const refineCancelStride = 256

// RefineProfile is Refine with measured block frequencies, indexed by
// Block.Index, driving the adjacency edge weights (nil falls back to
// the static estimate). Params.Cancel can stop it between vregs; every
// move it made by then is legal, so the assignment stays a valid
// coloring.
func RefineProfile(f *ir.Func, asn *regalloc.Assignment, p Params, freq []float64) int {
	g := adjacency.BuildVRegProfile(f, freq)
	ig := regalloc.Build(f, liveness.ComputeScratch(f, nil, p.Scratch))

	colorOf := func(v int) int {
		if v < len(asn.Color) {
			return asn.Color[v]
		}
		return -1
	}
	aliasOf := func(v int) int { return v }
	members := []int{0}
	forbidden := make([]bool, p.RegN)

	cancelled := func() bool { return p.Cancel != nil && p.Cancel() }
	moves := 0
	for round := 0; round < 8; round++ {
		if cancelled() {
			return moves
		}
		improved := false
		for v := 0; v < f.NumRegs(); v++ {
			if v > 0 && v%refineCancelStride == 0 && cancelled() {
				return moves
			}
			cur := asn.Color[v]
			if cur < 0 {
				continue
			}
			clear(forbidden)
			for _, w := range ig.AdjList[v] {
				if c := colorOf(w); c >= 0 && c < p.RegN {
					forbidden[c] = true
				}
			}
			members[0] = v
			bestC := cur
			bestCost := PickCost(g, members, v, cur, colorOf, aliasOf, p)
			for c := 0; c < p.RegN; c++ {
				if c == cur || forbidden[c] {
					continue
				}
				cost := PickCost(g, members, v, c, colorOf, aliasOf, p)
				if cost < bestCost {
					bestC, bestCost = c, cost
				}
			}
			if bestC != cur {
				asn.Color[v] = bestC
				moves++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return moves
}
