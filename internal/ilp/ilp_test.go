package ilp

import (
	"math/rand"
	"testing"
)

func TestTrivial(t *testing.T) {
	sol := Solve(Problem{Costs: []float64{1, 2, 3}}, Options{})
	if sol.Cost != 0 || !sol.Optimal {
		t.Fatalf("empty problem: %+v", sol)
	}
	for _, x := range sol.X {
		if x {
			t.Fatal("no variable should be set")
		}
	}
}

func TestSingleConstraintPicksCheapest(t *testing.T) {
	p := Problem{
		Costs:       []float64{5, 1, 3},
		Constraints: []Constraint{{Vars: []int{0, 1, 2}, Need: 1}},
	}
	sol := Solve(p, Options{})
	if !sol.Optimal || sol.Cost != 1 || !sol.X[1] || sol.X[0] || sol.X[2] {
		t.Fatalf("got %+v", sol)
	}
}

func TestNeedTwo(t *testing.T) {
	p := Problem{
		Costs:       []float64{5, 1, 3},
		Constraints: []Constraint{{Vars: []int{0, 1, 2}, Need: 2}},
	}
	sol := Solve(p, Options{})
	if sol.Cost != 4 || !sol.X[1] || !sol.X[2] {
		t.Fatalf("got %+v", sol)
	}
}

func TestSharedVariableAcrossConstraints(t *testing.T) {
	// One expensive variable covers both constraints; two cheap ones
	// cover one each. Optimal: the shared one iff cheaper than the sum.
	p := Problem{
		Costs: []float64{3, 2, 2},
		Constraints: []Constraint{
			{Vars: []int{0, 1}, Need: 1},
			{Vars: []int{0, 2}, Need: 1},
		},
	}
	sol := Solve(p, Options{})
	if sol.Cost != 3 || !sol.X[0] {
		t.Fatalf("want shared var at cost 3, got %+v", sol)
	}
}

func TestOverdemandTruncated(t *testing.T) {
	p := Problem{
		Costs:       []float64{1, 1},
		Constraints: []Constraint{{Vars: []int{0, 1}, Need: 5}},
	}
	sol := Solve(p, Options{})
	if sol.Cost != 2 || !sol.X[0] || !sol.X[1] {
		t.Fatalf("got %+v", sol)
	}
}

func TestDuplicateAndOutOfRangeVars(t *testing.T) {
	p := Problem{
		Costs:       []float64{1, 4},
		Constraints: []Constraint{{Vars: []int{0, 0, 7, -1, 1}, Need: 1}},
	}
	sol := Solve(p, Options{})
	if sol.Cost != 1 || !sol.X[0] {
		t.Fatalf("got %+v", sol)
	}
}

// bruteForce enumerates all assignments; reference for small cases.
func bruteForce(p Problem) float64 {
	n := len(p.Costs)
	cons := sanitize(p, n)
	best := -1.0
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for _, c := range cons {
			cnt := 0
			for _, v := range c.Vars {
				if mask&(1<<v) != 0 {
					cnt++
				}
			}
			if cnt < c.Need {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		cost := 0.0
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				cost += p.Costs[v]
			}
		}
		if best < 0 || cost < best {
			best = cost
		}
	}
	return best
}

func TestQuickAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		p := Problem{Costs: make([]float64, n)}
		for i := range p.Costs {
			p.Costs[i] = float64(1 + rng.Intn(20))
		}
		for c := 0; c < 1+rng.Intn(6); c++ {
			var vars []int
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					vars = append(vars, v)
				}
			}
			if len(vars) == 0 {
				continue
			}
			p.Constraints = append(p.Constraints, Constraint{Vars: vars, Need: 1 + rng.Intn(len(vars))})
		}
		sol := Solve(p, Options{})
		if !sol.Optimal {
			t.Fatalf("trial %d: not optimal on tiny instance", trial)
		}
		want := bruteForce(p)
		if sol.Cost != want {
			t.Fatalf("trial %d: cost %v, brute force %v (%+v)", trial, sol.Cost, want, p)
		}
		// Verify feasibility of the returned assignment.
		for _, c := range sanitize(p, n) {
			cnt := 0
			for _, v := range c.Vars {
				if sol.X[v] {
					cnt++
				}
			}
			if cnt < c.Need {
				t.Fatalf("trial %d: infeasible solution", trial)
			}
		}
	}
}

func TestNodeBudgetFallsBackToIncumbent(t *testing.T) {
	// A larger random instance with a 1-node budget must still return
	// a feasible (greedy) solution, flagged non-optimal.
	rng := rand.New(rand.NewSource(3))
	n := 40
	p := Problem{Costs: make([]float64, n)}
	for i := range p.Costs {
		p.Costs[i] = float64(1 + rng.Intn(9))
	}
	for c := 0; c < 30; c++ {
		var vars []int
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				vars = append(vars, v)
			}
		}
		if len(vars) < 2 {
			continue
		}
		p.Constraints = append(p.Constraints, Constraint{Vars: vars, Need: 1 + rng.Intn(2)})
	}
	sol := Solve(p, Options{MaxNodes: 1})
	if sol.Optimal {
		t.Fatal("cannot be proven optimal in one node")
	}
	for _, c := range sanitize(p, n) {
		cnt := 0
		for _, v := range c.Vars {
			if sol.X[v] {
				cnt++
			}
		}
		if cnt < c.Need {
			t.Fatal("incumbent infeasible")
		}
	}
}

func TestExclusiveGroups(t *testing.T) {
	// Two ways to satisfy the constraint: cheap y or expensive x, but
	// the pair is exclusive and Need=2 requires a second distinct var.
	p := Problem{
		Costs: []float64{10, 1, 4}, // x=0, y=1 (exclusive with x), z=2
		Constraints: []Constraint{
			{Vars: []int{0, 1, 2}, Need: 2},
		},
		Exclusive: [][]int{{0, 1}},
	}
	sol := Solve(p, Options{})
	if !sol.Optimal {
		t.Fatal("tiny instance must be optimal")
	}
	// Optimal: y (1) + z (4) = 5; x+y is forbidden; x+z = 14.
	if sol.Cost != 5 || !sol.X[1] || !sol.X[2] || sol.X[0] {
		t.Fatalf("got %+v", sol)
	}
}

func TestExclusiveForcesExpensiveChoice(t *testing.T) {
	// The cheap var is excluded against the only other cover of the
	// second constraint, so the solver must pay for the expensive one.
	p := Problem{
		Costs: []float64{1, 5},
		Constraints: []Constraint{
			{Vars: []int{0, 1}, Need: 1},
			{Vars: []int{1}, Need: 1},
		},
		Exclusive: [][]int{{0, 1}},
	}
	sol := Solve(p, Options{})
	if !sol.Optimal || sol.X[0] || !sol.X[1] || sol.Cost != 5 {
		t.Fatalf("got %+v", sol)
	}
}

func TestExclusiveQuickAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 150; trial++ {
		n := 3 + rng.Intn(8)
		p := Problem{Costs: make([]float64, n)}
		for i := range p.Costs {
			p.Costs[i] = float64(1 + rng.Intn(15))
		}
		for c := 0; c < 1+rng.Intn(4); c++ {
			var vars []int
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					vars = append(vars, v)
				}
			}
			if len(vars) == 0 {
				continue
			}
			p.Constraints = append(p.Constraints, Constraint{Vars: vars, Need: 1 + rng.Intn(len(vars))})
		}
		if n >= 2 {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				p.Exclusive = append(p.Exclusive, []int{a, b})
			}
		}
		want := bruteForceExclusive(p)
		sol := Solve(p, Options{})
		if want < 0 {
			if sol.X != nil && feasible(sanitize(p, n), sol.X) && exclusiveOK(p, sol.X) {
				t.Fatalf("trial %d: solver found solution to infeasible instance", trial)
			}
			continue
		}
		if !sol.Optimal || sol.Cost != want {
			t.Fatalf("trial %d: cost %v, brute force %v (%+v)", trial, sol.Cost, want, p)
		}
		if !exclusiveOK(p, sol.X) {
			t.Fatalf("trial %d: exclusivity violated", trial)
		}
	}
}

func exclusiveOK(p Problem, x []bool) bool {
	for _, g := range p.Exclusive {
		cnt := 0
		for _, v := range g {
			if v >= 0 && v < len(x) && x[v] {
				cnt++
			}
		}
		if cnt > 1 {
			return false
		}
	}
	return true
}

func bruteForceExclusive(p Problem) float64 {
	n := len(p.Costs)
	cons := sanitize(p, n)
	best := -1.0
	x := make([]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		for v := 0; v < n; v++ {
			x[v] = mask&(1<<v) != 0
		}
		if !feasible(cons, x) || !exclusiveOK(p, x) {
			continue
		}
		cost := totalCost(p.Costs, x)
		if best < 0 || cost < best {
			best = cost
		}
	}
	return best
}
