package remap

import (
	"math/rand"

	"diffra/internal/adjacency"
)

// LegacyGreedy is the serial multi-start search this package shipped
// before the parallel fixed-point engine: one shared RNG stream across
// restarts, incidence lists rebuilt from the CSR rows, and a full
// O(free²) swap-pair rescan on every descent step. It is retained
// as a search-quality oracle in tests; new callers should use Greedy.
//
// Because its restarts consume one sequential RNG stream, its visited
// permutations differ from Greedy's for the same Seed; only the cost
// quality is comparable, not the exact permutation.
func LegacyGreedy(g *adjacency.CSR, opts Options) *Result {
	restarts := opts.Restarts
	if restarts == 0 {
		restarts = 1000
	}
	free := freeRegs(opts)
	rng := rand.New(rand.NewSource(opts.Seed))

	permCost := func(perm []int) float64 { return g.PermCost(perm, opts.RegN, opts.DiffN) }

	// Incidence lists: edges touching each node.
	type edge struct {
		from, to int
		w        float64
	}
	incident := make([][]edge, opts.RegN)
	for from := 0; from < g.N && from < opts.RegN; from++ {
		tos, ws := g.Row(from)
		for k, to := range tos {
			if int(to) >= opts.RegN {
				continue
			}
			e := edge{from, int(to), ws[k]}
			incident[from] = append(incident[from], e)
			incident[to] = append(incident[to], e)
		}
	}
	// incidentCost sums violated weight over edges touching i or j
	// under perm (edges touching both are counted once via the from
	// side de-duplication below).
	incidentCost := func(perm []int, i, j int) float64 {
		c := 0.0
		for _, e := range incident[i] {
			if !adjacency.Satisfied(perm[e.from], perm[e.to], opts.RegN, opts.DiffN) {
				c += e.w
			}
		}
		for _, e := range incident[j] {
			if e.from == i || e.to == i {
				continue // already counted
			}
			if !adjacency.Satisfied(perm[e.from], perm[e.to], opts.RegN, opts.DiffN) {
				c += e.w
			}
		}
		return c
	}

	best := &Result{Cost: -1}
	for r := 0; r < restarts; r++ {
		if r > 0 && opts.Cancel != nil && opts.Cancel() {
			break
		}
		perm := Identity(opts.RegN)
		if r > 0 {
			// Random shuffle of the free positions' values.
			for i := len(free) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				perm[free[i]], perm[free[j]] = perm[free[j]], perm[free[i]]
			}
		}
		cost := permCost(perm)
		best.Evaluated++
		// Steepest descent on pairwise swaps with delta scoring.
		for {
			bestI, bestJ := -1, -1
			bestDelta := 0.0
			for ii := 0; ii < len(free); ii++ {
				for jj := ii + 1; jj < len(free); jj++ {
					i, j := free[ii], free[jj]
					before := incidentCost(perm, i, j)
					perm[i], perm[j] = perm[j], perm[i]
					after := incidentCost(perm, i, j)
					perm[i], perm[j] = perm[j], perm[i]
					best.Evaluated++
					if d := after - before; d < bestDelta {
						bestDelta, bestI, bestJ = d, i, j
					}
				}
			}
			if bestI < 0 {
				break // local minimum
			}
			perm[bestI], perm[bestJ] = perm[bestJ], perm[bestI]
			cost += bestDelta
		}
		// Recompute exactly: delta accumulation may drift in floating
		// point over long descents.
		cost = permCost(perm)
		if best.Cost < 0 || cost < best.Cost {
			best.Cost = cost
			best.Perm = append([]int(nil), perm...)
		}
		if best.Cost == 0 {
			break // cannot improve further
		}
	}
	return best
}
