package ilp

import (
	"math/rand"
	"sort"
	"testing"
)

// randomInstance builds a seeded random covering instance; withExcl
// adds exclusivity pairs (which can make it infeasible).
func randomInstance(rng *rand.Rand, n, cons int, withExcl bool) Problem {
	p := Problem{Costs: make([]float64, n)}
	for i := range p.Costs {
		p.Costs[i] = float64(1 + rng.Intn(20))
	}
	for c := 0; c < cons; c++ {
		var vars []int
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				vars = append(vars, v)
			}
		}
		if len(vars) == 0 {
			continue
		}
		p.Constraints = append(p.Constraints, Constraint{Vars: vars, Need: 1 + rng.Intn(len(vars))})
	}
	if withExcl {
		for g := 0; g < 1+rng.Intn(3); g++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				p.Exclusive = append(p.Exclusive, []int{a, b})
			}
		}
	}
	return p
}

// TestParallelSolveMatchesSerial is the determinism contract mirrored
// from internal/remap: over a grid of instances, every worker count
// returns bit-identical X, Cost, Optimal AND Nodes.
func TestParallelSolveMatchesSerial(t *testing.T) {
	var instances []Problem
	instances = append(instances,
		HardDisjoint(8, 12, 6),
		HardOverlap(8, 12, 6),
		HardOverlap(6, 10, 5),
	)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		instances = append(instances, randomInstance(rng, 10+rng.Intn(30), 4+rng.Intn(12), trial%2 == 1))
	}
	for idx, p := range instances {
		// A small budget on the hard instances also pins down the
		// budget-exhaustion path (Optimal=false) across worker counts.
		serial := Solve(p, Options{MaxNodes: 3000, Workers: 1})
		for _, workers := range []int{2, 8} {
			got := Solve(p, Options{MaxNodes: 3000, Workers: workers})
			if got.Cost != serial.Cost || got.Optimal != serial.Optimal || got.Nodes != serial.Nodes ||
				got.Components != serial.Components || got.Reductions != serial.Reductions || got.Pruned != serial.Pruned {
				t.Fatalf("instance %d workers=%d: %+v != serial %+v", idx, workers, got, serial)
			}
			if (got.X == nil) != (serial.X == nil) {
				t.Fatalf("instance %d workers=%d: X nil-ness differs", idx, workers)
			}
			for v := range serial.X {
				if got.X[v] != serial.X[v] {
					t.Fatalf("instance %d workers=%d: X[%d] differs", idx, workers, v)
				}
			}
		}
	}
}

// TestSolveMatchesBruteForce: Solve is exact, so on instances small
// enough to enumerate it must return the brute-force optimum, and on
// instances the exclusivity groups make infeasible it must return no
// assignment.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		p := randomInstance(rng, 6+rng.Intn(12), 2+rng.Intn(8), trial%3 == 0)
		sol := Solve(p, Options{})
		want := bruteForceExclusive(p)
		if want < 0 {
			if sol.X != nil || sol.Optimal {
				t.Fatalf("trial %d: infeasible instance returned %+v", trial, sol)
			}
			continue
		}
		if !sol.Optimal || sol.Cost != want {
			t.Fatalf("trial %d: optimum %v (optimal=%v), brute force %v (%+v)", trial, sol.Cost, sol.Optimal, want, p)
		}
		if !feasible(sanitize(p, len(p.Costs)), sol.X) || !exclusiveOK(p, sol.X) {
			t.Fatalf("trial %d: infeasible assignment %v", trial, sol.X)
		}
	}
}

// TestDecompositionCollapsesDisjoint: the decomposition must solve
// the disjoint family at a node count proportional to the number of
// groups, not exponential in it — this is the structural win behind
// the BENCH_ilp.json speedup.
func TestDecompositionCollapsesDisjoint(t *testing.T) {
	p := HardDisjoint(8, 12, 6)
	sol := Solve(p, Options{})
	if !sol.Optimal {
		t.Fatalf("disjoint instance not solved to optimality: %+v", sol)
	}
	if sol.Components != 8 {
		t.Fatalf("components = %d, want 8", sol.Components)
	}
	if sol.Nodes > 1000 {
		t.Fatalf("decomposition missed: %d nodes", sol.Nodes)
	}
	// Each group is one need-of-width constraint over its own
	// variables, so the optimum takes each group's need cheapest costs.
	want := 0.0
	for _, c := range p.Constraints {
		costs := make([]float64, 0, len(c.Vars))
		for _, v := range c.Vars {
			costs = append(costs, p.Costs[v])
		}
		sort.Float64s(costs)
		for _, cost := range costs[:c.Need] {
			want += cost
		}
	}
	if sol.Cost != want {
		t.Fatalf("decomposed optimum %v, closed form %v", sol.Cost, want)
	}
}

// TestReductionsFixForcedVariables: a constraint needing all its
// variables is resolved entirely in preprocessing.
func TestReductionsFixForcedVariables(t *testing.T) {
	p := Problem{
		Costs: []float64{3, 4, 5, 1},
		Constraints: []Constraint{
			{Vars: []int{0, 1}, Need: 2},        // forces 0 and 1
			{Vars: []int{0, 2, 3}, Need: 1},     // satisfied by the forcing
			{Vars: []int{2, 3}, Need: 1},        // survives: pick cheapest
			{Vars: []int{2, 3, 3, -5}, Need: 1}, // dominated duplicate
		},
	}
	sol := Solve(p, Options{})
	if !sol.Optimal || sol.Cost != 3+4+1 {
		t.Fatalf("got %+v", sol)
	}
	if !sol.X[0] || !sol.X[1] || !sol.X[3] || sol.X[2] {
		t.Fatalf("assignment %v", sol.X)
	}
	if sol.Reductions == 0 {
		t.Fatal("no reductions recorded")
	}
	if sol.Nodes > 3 {
		t.Fatalf("preprocessing left too much search: %d nodes", sol.Nodes)
	}
}

// TestInfeasibleByExclusivity: preprocessing + search must report an
// infeasible instance as nil X and +Inf cost.
func TestInfeasibleByExclusivity(t *testing.T) {
	p := Problem{
		Costs: []float64{1, 2},
		Constraints: []Constraint{
			{Vars: []int{0}, Need: 1},
			{Vars: []int{1}, Need: 1},
		},
		Exclusive: [][]int{{0, 1}},
	}
	for _, workers := range []int{1, 2} {
		sol := Solve(p, Options{Workers: workers})
		if sol.X != nil || sol.Optimal {
			t.Fatalf("workers=%d: infeasible instance reported %+v", workers, sol)
		}
	}
}
