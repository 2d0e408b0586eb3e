// Package ilp provides an exact 0-1 integer program solver for
// weighted covering problems, the class needed by the optimal spilling
// register allocator (Appel & George, PLDI 2001). The paper's authors
// used CPLEX; this branch-and-bound solver is the stdlib-only
// substitute and is exact whenever it finishes within its node budget
// (it reports whether it did).
//
// Problem form:
//
//	minimize   sum_v cost[v] * x[v]
//	subject to sum_{v in Vars_i} x[v] >= Need_i   for every constraint i
//	           x[v] in {0, 1}
//
// Solve preprocesses the instance (variable fixing, constraint
// dominance), splits the constraint hypergraph into connected
// components, and searches each component with a trail-based branch
// and bound using an incrementally-maintained disjoint-sum lower
// bound. The search runs in fixed-size node chunks on a deterministic
// epoch scheduler (steal.go) whose items fan out over internal/par: a
// chunk that exhausts its budget serializes its unexplored frontier
// into new work items, and incumbent bounds broadcast at epoch
// barriers, so the item population adapts to where the instance is
// hard — including connected instances decomposition cannot split —
// while X, Cost, Optimal, Nodes and Pruned stay bit-identical at any
// Options.Workers. The pre-decomposition solver is retained as
// LegacySolve (benchmark baseline and quality oracle).
package ilp

import (
	"math"
	"sort"
)

var inf = math.Inf(1)

const defaultMaxNodes = 500000

// feasible reports whether x satisfies every constraint.
func feasible(cons []Constraint, x []bool) bool {
	for _, c := range cons {
		cnt := 0
		for _, v := range c.Vars {
			if x[v] {
				cnt++
			}
		}
		if cnt < c.Need {
			return false
		}
	}
	return true
}

// Constraint demands that at least Need of the listed variables are 1.
type Constraint struct {
	Vars []int
	Need int
}

// Problem is a weighted covering instance. Exclusive lists groups of
// variables of which at most one may be 1 — the optimal spilling
// allocator uses this to forbid paying twice for the same live range
// (a full spill and a loop spill both free the same register).
type Problem struct {
	Costs       []float64
	Constraints []Constraint
	Exclusive   [][]int
}

// Options bounds the search.
type Options struct {
	// MaxNodes caps branch-and-bound nodes per connected component
	// (0: 500000). The scheduler's admission control keeps the
	// deterministic overshoot under about one chunk, so the budget —
	// like everything else in Solution — is independent of the worker
	// count.
	MaxNodes int
	// Cancel, when non-nil, is polled about every 64 nodes by every
	// worker; returning true aborts the search. The solution reports
	// Cancelled and holds the best incumbent found so far (always
	// feasible when non-nil).
	Cancel func() bool
	// Workers is the number of goroutines solving work items
	// concurrently (0 or 1: serial). The result is bit-identical at
	// any worker count.
	Workers int
	// Stats, when non-nil, accumulates epoch scheduler telemetry
	// (epochs, bound broadcasts, items).
	Stats *StealStats
}

// Solution is the solver output.
type Solution struct {
	X    []bool
	Cost float64
	// Optimal is true when the search completed within budget; when
	// false the solution is the best incumbent (always feasible).
	Optimal bool
	// Cancelled is true when Options.Cancel aborted the search.
	Cancelled bool
	// Nodes is the number of branch-and-bound nodes explored, summed
	// across all work items (worker-count independent).
	Nodes int
	// Components is the number of connected components the constraint
	// hypergraph decomposed into after preprocessing.
	Components int
	// Reductions counts preprocessing simplifications: variables fixed
	// and constraints dropped before the search started.
	Reductions int
	// Pruned counts subtrees cut by the lower bound or by branch
	// infeasibility, summed across all work items.
	Pruned int
}

// Solve runs the decomposed branch and bound. A feasible solution
// always exists unless exclusivity groups make the instance
// infeasible (then X is nil and Cost is +Inf); constraints with Need
// greater than their variable count are truncated to the variable
// count.
func Solve(p Problem, opts Options) Solution {
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}
	n := len(p.Costs)

	pre := preprocess(p, n)
	sol := Solution{
		Components: len(pre.comps),
		Reductions: pre.reductions,
	}
	if pre.infeasible {
		// Preprocessing proved no assignment satisfies the constraints
		// under the exclusivity groups; match LegacySolve's contract.
		sol.Cost = inf
		sol.Optimal = false
		return sol
	}

	outs := solveSteal(pre, maxNodes, opts)

	// The epoch engine already reduced per component (best incumbent by
	// (cost, lowest item index), bounds broadcast at epoch barriers);
	// assemble the global assignment with the greedy incumbent backing
	// any component whose search improved on nothing.
	x := make([]bool, n)
	for v := 0; v < n; v++ {
		x[v] = pre.fixed[v] == 1
	}
	optimal := true
	for _, o := range outs {
		sol.Nodes += o.Nodes
		sol.Pruned += o.Pruned
		if o.Cancelled {
			sol.Cancelled = true
		}
		if o.Exhausted {
			optimal = false
		}
	}
	for ci, c := range pre.comps {
		o := outs[ci]
		switch {
		case o.Found:
			for li, on := range o.Best {
				x[c.vars[li]] = on
			}
		case c.greedy != nil:
			for li, on := range c.greedy {
				x[c.vars[li]] = on
			}
		default:
			// No feasible assignment found for this component; if the
			// frontier drained, that is a proof of infeasibility,
			// otherwise the budget (or cancellation) cut the search
			// short. Either way the whole instance has no known feasible
			// solution.
			sol.Cost = inf
			sol.Optimal = false
			return sol
		}
	}
	sol.X = x
	sol.Cost = totalCost(p.Costs, x)
	sol.Optimal = optimal && !sol.Cancelled
	return sol
}

func sanitize(p Problem, n int) []Constraint {
	var cons []Constraint
	for _, c := range p.Constraints {
		vars := make([]int, 0, len(c.Vars))
		seen := map[int]bool{}
		for _, v := range c.Vars {
			if v >= 0 && v < n && !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
		need := c.Need
		if need > len(vars) {
			need = len(vars)
		}
		if need > 0 {
			sort.Ints(vars)
			cons = append(cons, Constraint{Vars: vars, Need: need})
		}
	}
	return cons
}

func totalCost(costs []float64, x []bool) float64 {
	t := 0.0
	for v, on := range x {
		if on {
			t += costs[v]
		}
	}
	return t
}
