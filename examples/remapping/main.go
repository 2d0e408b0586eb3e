// Remapping example: the paper's Figure 5/6 modeling walkthrough.
// Builds the adjacency graph of the Figure 5 access sequence, shows
// the condition-(3) cost of different register numberings, and runs
// the §5 permutation searches (exhaustive and greedy) on a numbering
// that the identity assignment encodes badly.
package main

import (
	"fmt"

	"diffra/internal/adjacency"
	"diffra/internal/ir"
	"diffra/internal/remap"
)

func main() {
	// Figure 5: live ranges L1..L6 accessed in the order
	// L1 L2 L3 L4 L1 L2 L5 L4 L6 (single-field instructions).
	f := ir.MustParse(`
func fig5(v1, v2, v3, v4, v5, v6) {
entry:
  spill_store v1, 0
  spill_store v2, 0
  spill_store v3, 0
  spill_store v4, 0
  spill_store v1, 0
  spill_store v2, 0
  spill_store v5, 0
  spill_store v4, 0
  spill_store v6, 0
  ret
}
`)
	g := adjacency.BuildVReg(f)
	fmt.Println("Figure 5 adjacency graph (edge: vj follows vi):")
	for from := 0; from < g.N; from++ {
		tos, ws := g.Row(from)
		for k, to := range tos {
			fmt.Printf("  L%d -> L%d  weight %.0f\n", from, to, ws[k])
		}
	}

	const regN, diffN = 3, 2
	good := map[int]int{1: 0, 2: 1, 3: 2, 4: 0, 5: 2, 6: 1}
	bad := map[int]int{1: 0, 2: 2, 3: 1, 4: 0, 5: 1, 6: 2}
	cost := func(a map[int]int) float64 {
		return g.Cost(func(n int) int {
			if r, ok := a[n]; ok {
				return r
			}
			return -1
		}, regN, diffN)
	}
	fmt.Printf("\ncondition (3) with RegN=%d DiffN=%d:\n", regN, diffN)
	fmt.Printf("  paper-style optimal assignment cost: %.0f\n", cost(good))
	fmt.Printf("  adversarial assignment cost:         %.0f\n", cost(bad))

	// Figure 6: remap a register graph whose identity numbering pays.
	rg := adjacency.FromEdges(3, []adjacency.Edge{
		{From: 1, To: 0, W: 3}, // R0 follows R1: difference 2, violated
		{From: 2, To: 1, W: 2}, // R1 follows R2: difference 2, violated
	})
	idCost := rg.PermCost(remap.Identity(3), regN, diffN)
	ex := remap.Exhaustive(rg, remap.Options{RegN: regN, DiffN: diffN})
	// One worker: the result is the same at any worker count, but extra
	// workers can evaluate more before the zero-cost restart stops them.
	gr := remap.Greedy(rg, remap.Options{RegN: regN, DiffN: diffN, Restarts: 100, Workers: 1})
	fmt.Printf("\nFigure 6 register graph: identity cost %.0f\n", idCost)
	fmt.Printf("  exhaustive search: perm %v cost %.0f (%d evaluations)\n", ex.Perm, ex.Cost, ex.Evaluated)
	fmt.Printf("  greedy search:     perm %v cost %.0f (%d evaluations)\n", gr.Perm, gr.Cost, gr.Evaluated)
}
