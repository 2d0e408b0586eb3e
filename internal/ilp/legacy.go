package ilp

import "sort"

// LegacySolve is the pre-decomposition branch-and-bound solver: a
// single-threaded search with a per-constraint lower bound recomputed
// from scratch at every node. It is retained as a quality oracle in
// tests — both solvers are exact, so on any instance they finish they
// must agree on the optimal cost.
func LegacySolve(p Problem, opts Options) Solution {
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}
	n := len(p.Costs)
	cons := sanitize(p, n)

	s := &legacySolver{p: p, cons: cons, n: n, maxNodes: maxNodes, cancel: opts.Cancel}
	s.groupsOf = make([][]int, n)
	for gi, g := range p.Exclusive {
		for _, v := range g {
			if v >= 0 && v < n {
				s.groupsOf[v] = append(s.groupsOf[v], gi)
			}
		}
	}
	// The greedy incumbent must respect exclusivity; banning a group
	// peer can strand a constraint whose only cover was the banned
	// variable, so the incumbent is validated and discarded (infinite
	// bound) when infeasible — branch and bound then finds the first
	// feasible solution itself.
	s.best = greedyExclusive(p, cons, n)
	if feasible(cons, s.best) {
		s.bestCost = totalCost(p.Costs, s.best)
	} else {
		s.best = nil
		s.bestCost = inf
	}

	x := make([]int8, n) // -1 fixed 0, +1 fixed 1, 0 free
	s.branch(x, 0)

	if s.best == nil {
		// No feasible solution found within budget (only possible with
		// exclusivity groups); report explicitly.
		return Solution{X: nil, Cost: inf, Optimal: false, Cancelled: s.cancelled, Nodes: s.nodes}
	}
	return Solution{X: s.best, Cost: s.bestCost, Optimal: !s.out, Cancelled: s.cancelled, Nodes: s.nodes}
}

// greedyExclusive builds an initial feasible incumbent: repeatedly
// pick the variable with the best deficit-coverage per cost, skipping
// variables whose exclusivity-group peer was already chosen.
func greedyExclusive(p Problem, cons []Constraint, n int) []bool {
	banned := make([]bool, n)
	ban := func(v int) {
		for _, g := range p.Exclusive {
			inGroup := false
			for _, u := range g {
				if u == v {
					inGroup = true
					break
				}
			}
			if inGroup {
				for _, u := range g {
					if u != v && u >= 0 && u < n {
						banned[u] = true
					}
				}
			}
		}
	}
	costs := p.Costs
	x := make([]bool, n)
	deficit := make([]int, len(cons))
	for i, c := range cons {
		deficit[i] = c.Need
	}
	for {
		done := true
		for _, d := range deficit {
			if d > 0 {
				done = false
				break
			}
		}
		if done {
			return x
		}
		bestV, bestScore := -1, 0.0
		for v := 0; v < n; v++ {
			if x[v] || banned[v] {
				continue
			}
			cover := 0
			for i, c := range cons {
				if deficit[i] <= 0 {
					continue
				}
				for _, cv := range c.Vars {
					if cv == v {
						cover++
						break
					}
				}
			}
			if cover == 0 {
				continue
			}
			score := float64(cover) / (costs[v] + 1e-9)
			if bestV < 0 || score > bestScore {
				bestV, bestScore = v, score
			}
		}
		if bestV < 0 {
			return x // remaining constraints unsatisfiable; sanitize prevents this
		}
		x[bestV] = true
		ban(bestV)
		for i, c := range cons {
			if deficit[i] <= 0 {
				continue
			}
			for _, cv := range c.Vars {
				if cv == bestV {
					deficit[i]--
					break
				}
			}
		}
	}
}

type legacySolver struct {
	p         Problem
	cons      []Constraint
	n         int
	maxNodes  int
	nodes     int
	out       bool
	cancel    func() bool
	cancelled bool
	groupsOf  [][]int // var -> indexes into p.Exclusive

	best     []bool
	bestCost float64
}

// fixOne sets x[v]=1 and forces its exclusivity-group peers to 0,
// recording every variable it changed so the caller can undo. It
// returns false if a peer was already fixed to 1 (infeasible).
func (s *legacySolver) fixOne(x []int8, v int) ([]int, bool) {
	changed := []int{v}
	x[v] = 1
	for _, gi := range s.groupsOf[v] {
		for _, u := range s.p.Exclusive[gi] {
			if u == v || u < 0 || u >= s.n {
				continue
			}
			switch x[u] {
			case 1:
				// Conflict; undo and report infeasible.
				for _, c := range changed {
					x[c] = 0
				}
				return nil, false
			case 0:
				x[u] = -1
				changed = append(changed, u)
			}
		}
	}
	return changed, true
}

// branch explores assignments. x holds fixed values; cur is the cost
// of variables fixed to 1.
func (s *legacySolver) branch(x []int8, cur float64) {
	if s.out {
		return
	}
	s.nodes++
	if s.nodes > s.maxNodes {
		s.out = true
		return
	}
	if s.cancel != nil && s.nodes&63 == 0 && s.cancel() {
		s.out = true
		s.cancelled = true
		return
	}
	if cur+s.lowerBound(x) >= s.bestCost {
		return
	}

	// Find the most violated constraint under the optimistic view
	// (free variables could still go either way): a constraint is
	// decided when its fixed ones already meet Need, dead when even
	// all free ones cannot.
	branchCon := -1
	for i, c := range s.cons {
		ones, free := s.tally(c, x)
		switch {
		case ones >= c.Need:
			continue
		case ones+free < c.Need:
			return // infeasible branch
		default:
			if branchCon < 0 {
				branchCon = i
			}
		}
	}
	if branchCon < 0 {
		// All constraints satisfied: record incumbent.
		if cur < s.bestCost {
			s.bestCost = cur
			s.best = make([]bool, s.n)
			for v := range x {
				s.best[v] = x[v] == 1
			}
		}
		return
	}

	// Branch on the cheapest free variable of the chosen constraint.
	c := s.cons[branchCon]
	bv := -1
	for _, v := range c.Vars {
		if x[v] == 0 && (bv < 0 || s.p.Costs[v] < s.p.Costs[bv]) {
			bv = v
		}
	}
	// Try x[bv]=1 first (drives toward feasibility), propagating
	// exclusivity groups.
	if changed, ok := s.fixOne(x, bv); ok {
		s.branch(x, cur+s.p.Costs[bv])
		for _, c := range changed {
			x[c] = 0
		}
	}
	x[bv] = -1
	s.branch(x, cur)
	x[bv] = 0
}

func (s *legacySolver) tally(c Constraint, x []int8) (ones, free int) {
	for _, v := range c.Vars {
		switch x[v] {
		case 1:
			ones++
		case 0:
			free++
		}
	}
	return
}

// lowerBound: for each unmet constraint, the cheapest completion using
// its free variables; the maximum over constraints is a valid bound
// (they may share variables, so summing would overcount).
func (s *legacySolver) lowerBound(x []int8) float64 {
	lb := 0.0
	var buf []float64
	for _, c := range s.cons {
		ones, _ := s.tally(c, x)
		need := c.Need - ones
		if need <= 0 {
			continue
		}
		buf = buf[:0]
		for _, v := range c.Vars {
			if x[v] == 0 {
				buf = append(buf, s.p.Costs[v])
			}
		}
		if len(buf) < need {
			continue // infeasible; caller detects
		}
		sort.Float64s(buf)
		sum := 0.0
		for i := 0; i < need; i++ {
			sum += buf[i]
		}
		if sum > lb {
			lb = sum
		}
	}
	return lb
}
