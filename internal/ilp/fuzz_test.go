package ilp

import "testing"

// decodeInstance reads a covering instance of 1–16 variables from fuzz
// bytes: a cost in [0, 20] per variable, then up to eight constraints,
// each a 16-bit variable mask and a Need in [0, |vars|+1] (so dropped
// and truncated constraints occur), then up to three exclusive pairs of
// distinct variables. Missing bytes read as zero.
func decodeInstance(nVars uint8, data []byte) Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + int(nVars)%16
	p := Problem{Costs: make([]float64, n)}
	for v := range p.Costs {
		p.Costs[v] = float64(next() % 21)
	}
	for c := next() % 9; c > 0; c-- {
		mask := next() | next()<<8
		var vars []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				vars = append(vars, v)
			}
		}
		p.Constraints = append(p.Constraints, Constraint{Vars: vars, Need: next() % (len(vars) + 2)})
	}
	for e := next() % 4; e > 0; e-- {
		if a, b := next()%n, next()%n; a != b {
			p.Exclusive = append(p.Exclusive, []int{a, b})
		}
	}
	return p
}

// assertSameSolution fails unless two solves of one instance agree on
// X, Cost, Optimal, Nodes and Pruned.
func assertSameSolution(t *testing.T, what string, a, b Solution) {
	t.Helper()
	if a.Cost != b.Cost || a.Optimal != b.Optimal || a.Nodes != b.Nodes || a.Pruned != b.Pruned || (a.X == nil) != (b.X == nil) {
		t.Fatalf("%s: %+v != %+v", what, a, b)
	}
	for v := range a.X {
		if a.X[v] != b.X[v] {
			t.Fatalf("%s: X[%d] differs", what, v)
		}
	}
}

// FuzzILP checks the parallel branch and bound on fuzzer-chosen
// instances of at most 16 variables, where brute-force enumeration is
// the exact reference: Workers 1 and 3 return the same solution, an
// infeasible instance returns no assignment, every assignment returned
// is feasible and costs what it says, an optimal one costs the brute
// force optimum, and one cut short by a small MaxNodes is no cheaper
// than it. At the default budget every feasible instance is solved to
// optimality: a full binary tree over 16 variables has 131,071 nodes.
// The seed corpus is checked in under testdata/fuzz/FuzzILP.
func FuzzILP(f *testing.F) {
	f.Fuzz(func(t *testing.T, nVars, budget uint8, data []byte) {
		p := decodeInstance(nVars, data)
		want := bruteForceExclusive(p)
		cons := sanitize(p, len(p.Costs))
		for _, maxNodes := range []int{0, 1 + int(budget)%64} {
			sol := Solve(p, Options{MaxNodes: maxNodes, Workers: 1})
			assertSameSolution(t, "workers 1 vs 3", sol, Solve(p, Options{MaxNodes: maxNodes, Workers: 3}))
			if sol.X == nil {
				if sol.Optimal || (want >= 0 && maxNodes == 0) {
					t.Fatalf("MaxNodes %d: no assignment (optimal=%v), brute force %v (%+v)", maxNodes, sol.Optimal, want, p)
				}
				continue
			}
			if want < 0 {
				t.Fatalf("MaxNodes %d: infeasible instance returned %v (%+v)", maxNodes, sol.X, p)
			}
			if !feasible(cons, sol.X) || !exclusiveOK(p, sol.X) {
				t.Fatalf("MaxNodes %d: infeasible assignment %v (%+v)", maxNodes, sol.X, p)
			}
			if sol.Cost != totalCost(p.Costs, sol.X) || sol.Cost < want {
				t.Fatalf("MaxNodes %d: cost %v, assignment costs %v, brute force %v (%+v)",
					maxNodes, sol.Cost, totalCost(p.Costs, sol.X), want, p)
			}
			if maxNodes == 0 && !sol.Optimal {
				t.Fatalf("default budget did not prove the optimum (%+v)", p)
			}
			if sol.Optimal && sol.Cost != want {
				t.Fatalf("MaxNodes %d: optimum %v, brute force %v (%+v)", maxNodes, sol.Cost, want, p)
			}
		}
	})
}
