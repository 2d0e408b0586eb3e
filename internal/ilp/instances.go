package ilp

import "math/rand"

// Seeded instance families shared by benchmarks and tests.

// HardDisjoint builds `groups` disjoint width-variable constraints
// with near-uniform costs. A search over the whole instance with a
// per-constraint max bound, which sees one group at a time, re-derives
// each group's optimum in every branch of the others; the decomposed
// solver splits it into single-constraint components and solves each
// at the root.
func HardDisjoint(groups, width, need int) Problem {
	rng := rand.New(rand.NewSource(7))
	n := groups * width
	p := Problem{Costs: make([]float64, n)}
	for i := range p.Costs {
		p.Costs[i] = 10 + float64(rng.Intn(3))
	}
	for g := 0; g < groups; g++ {
		vars := make([]int, width)
		for i := range vars {
			vars[i] = g*width + i
		}
		p.Constraints = append(p.Constraints, Constraint{Vars: vars, Need: need})
	}
	return p
}

// HardOverlap builds an instance the decomposition CANNOT simplify: a
// chain of half-overlapping width-variable windows (window g shares
// width/2 variables with window g+1), one connected component with no
// small separator. Near-uniform costs make window-boundary sharing
// decisions nearly tied, so the solver must search; this is the
// family for cancellation tests and honest search-throughput
// benchmarks, where the speedup is per-node efficiency and worker
// scaling rather than decomposition.
func HardOverlap(windows, width, need int) Problem {
	rng := rand.New(rand.NewSource(11))
	step := width / 2
	n := step*windows + width
	p := Problem{Costs: make([]float64, n)}
	for i := range p.Costs {
		p.Costs[i] = 10 + float64(rng.Intn(3))
	}
	for g := 0; g < windows; g++ {
		vars := make([]int, width)
		for i := range vars {
			vars[i] = g*step + i
		}
		p.Constraints = append(p.Constraints, Constraint{Vars: vars, Need: need})
	}
	return p
}
