package ilp

// Preprocessing shrinks the instance before any search: variables
// whose value is forced are fixed (with exclusivity propagation),
// satisfied and dominated constraints are dropped, and the surviving
// constraint hypergraph is split into connected components that Solve
// searches independently. Spill constraints at distinct program
// points are frequently disjoint, so the decomposition alone
// collapses many allocator instances into trivial subproblems.

// comp is one connected component of the residual hypergraph, with
// variables renumbered to a dense local index space.
type comp struct {
	vars  []int     // local -> global variable id (ascending)
	costs []float64 // local costs
	cons  []ccon    // residual constraints over local ids

	// varCons is the local var -> constraint adjacency in CSR form:
	// constraint indexes for local var v are
	// varConsIdx[varConsOff[v]:varConsOff[v+1]].
	varConsOff []int32
	varConsIdx []int32

	// groups are the exclusivity groups restricted to this component's
	// free members (each with at least two members); groupsOf mirrors
	// varCons for group membership.
	groups      [][]int
	groupsOfOff []int32
	groupsOfIdx []int32

	// greedy is the component-local feasible incumbent (nil when the
	// greedy heuristic violates a constraint under exclusivity);
	// greedyCost is +Inf in that case.
	greedy     []bool
	greedyCost float64
}

// ccon is a residual constraint: need of the listed free variables.
type ccon struct {
	vars   []int // local ids, ascending
	sorted []int // local ids ordered by (cost, id) — cheapest completion prefix
	need   int
}

type preprocessed struct {
	n          int
	fixed      []int8 // global: 0 free, +1 / -1 fixed by preprocessing
	comps      []*comp
	reductions int
	infeasible bool
}

// preprocess sanitizes, runs the variable-fixing / dominance fixpoint,
// and decomposes the residue into components.
func preprocess(p Problem, n int) *preprocessed {
	pre := &preprocessed{n: n, fixed: make([]int8, n)}
	cons := sanitize(p, n)

	// Clean exclusivity groups once: in-range, deduped, >= 2 members.
	var groups [][]int
	for _, g := range p.Exclusive {
		seen := map[int]bool{}
		var mem []int
		for _, v := range g {
			if v >= 0 && v < n && !seen[v] {
				seen[v] = true
				mem = append(mem, v)
			}
		}
		if len(mem) >= 2 {
			groups = append(groups, mem)
		}
	}
	groupsOf := make([][]int, n)
	for gi, g := range groups {
		for _, v := range g {
			groupsOf[v] = append(groupsOf[v], gi)
		}
	}

	fixed := pre.fixed
	// fixTo1 fixes v to 1 and its exclusivity peers to 0; false on
	// conflict (a peer already forced to 1).
	fixTo1 := func(v int) bool {
		if fixed[v] == -1 {
			return false
		}
		if fixed[v] == 1 {
			return true
		}
		fixed[v] = 1
		pre.reductions++
		for _, gi := range groupsOf[v] {
			for _, u := range groups[gi] {
				if u == v {
					continue
				}
				if fixed[u] == 1 {
					return false
				}
				if fixed[u] == 0 {
					fixed[u] = -1
					pre.reductions++
				}
			}
		}
		return true
	}

	live := make([]bool, len(cons))
	for i := range live {
		live[i] = true
	}
	residual := func(c Constraint) (free []int, eff int) {
		eff = c.Need
		for _, v := range c.Vars {
			switch fixed[v] {
			case 1:
				eff--
			case 0:
				free = append(free, v)
			}
		}
		return
	}

	// Forcing fixpoint: drop satisfied constraints, fix variables of
	// tight constraints (eff == free count), detect infeasibility.
	for changed := true; changed; {
		changed = false
		for i, c := range cons {
			if !live[i] {
				continue
			}
			free, eff := residual(c)
			switch {
			case eff <= 0:
				live[i] = false
				pre.reductions++
				changed = true
			case len(free) < eff:
				pre.infeasible = true
				return pre
			case len(free) == eff:
				for _, v := range free {
					if !fixTo1(v) {
						pre.infeasible = true
						return pre
					}
				}
				live[i] = false
				pre.reductions++
				changed = true
			}
		}
	}

	// Dominance: if A's residual variables are a subset of B's and A
	// demands at least as much, any assignment satisfying A satisfies
	// B — drop B. Quadratic, so guarded by a size cap.
	liveCount := 0
	for i := range live {
		if live[i] {
			liveCount++
		}
	}
	if liveCount <= 512 {
		frees := make([][]int, len(cons))
		effs := make([]int, len(cons))
		for i, c := range cons {
			if live[i] {
				frees[i], effs[i] = residual(c)
			}
		}
		for a := range cons {
			if !live[a] {
				continue
			}
			for b := range cons {
				if a == b || !live[b] {
					continue
				}
				if effs[a] >= effs[b] && subsetSorted(frees[a], frees[b]) {
					live[b] = false
					pre.reductions++
				}
			}
		}
	}

	// Union-find over free variables: constraints connect their free
	// variables; exclusivity groups connect the free members that
	// occur in some live constraint (members in no constraint are
	// never set, so their exclusivity is vacuous).
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	inCons := make([]bool, n)
	conFree := make([][]int, len(cons))
	conEff := make([]int, len(cons))
	for i, c := range cons {
		if !live[i] {
			continue
		}
		conFree[i], conEff[i] = residual(c)
		for _, v := range conFree[i] {
			inCons[v] = true
		}
		for _, v := range conFree[i][1:] {
			union(conFree[i][0], v)
		}
	}
	for _, g := range groups {
		first := -1
		for _, v := range g {
			if fixed[v] == 0 && inCons[v] {
				if first < 0 {
					first = v
				} else {
					union(first, v)
				}
			}
		}
	}

	// Materialize components in root order (deterministic: roots are
	// the smallest global id of their component).
	compOf := map[int]*comp{}
	var order []int
	for i := range cons {
		if !live[i] {
			continue
		}
		root := find(conFree[i][0])
		c := compOf[root]
		if c == nil {
			c = &comp{}
			compOf[root] = c
			order = append(order, root)
		}
	}
	sortInts(order)
	for v := 0; v < n; v++ {
		if fixed[v] != 0 || !inCons[v] {
			continue
		}
		c := compOf[find(v)]
		if c != nil {
			c.vars = append(c.vars, v)
		}
	}
	local := make([]int, n)
	for _, root := range order {
		c := compOf[root]
		for li, v := range c.vars {
			local[v] = li
		}
		c.costs = make([]float64, len(c.vars))
		for li, v := range c.vars {
			c.costs[li] = p.Costs[v]
		}
	}
	for i := range cons {
		if !live[i] {
			continue
		}
		c := compOf[find(conFree[i][0])]
		vars := make([]int, len(conFree[i]))
		for j, v := range conFree[i] {
			vars[j] = local[v]
		}
		sorted := make([]int, len(vars))
		copy(sorted, vars)
		byCost(sorted, c.costs)
		c.cons = append(c.cons, ccon{vars: vars, sorted: sorted, need: conEff[i]})
	}
	for _, g := range groups {
		var mem []int
		var root int
		for _, v := range g {
			if fixed[v] == 0 && inCons[v] {
				mem = append(mem, v)
				root = find(v)
			}
		}
		if len(mem) < 2 {
			continue
		}
		c := compOf[root]
		lg := make([]int, len(mem))
		for j, v := range mem {
			lg[j] = local[v]
		}
		c.groups = append(c.groups, lg)
	}
	for _, root := range order {
		c := compOf[root]
		c.buildCSR()
		c.greedy, c.greedyCost = compGreedy(c)
		pre.comps = append(pre.comps, c)
	}
	return pre
}

// buildCSR flattens the var->constraint and var->group adjacency into
// offset/index arrays so the search's incremental updates walk flat
// memory.
func (c *comp) buildCSR() {
	nv := len(c.vars)
	cnt := make([]int32, nv+1)
	for _, cc := range c.cons {
		for _, v := range cc.vars {
			cnt[v+1]++
		}
	}
	for v := 0; v < nv; v++ {
		cnt[v+1] += cnt[v]
	}
	c.varConsOff = cnt
	c.varConsIdx = make([]int32, cnt[nv])
	pos := make([]int32, nv)
	for ci, cc := range c.cons {
		for _, v := range cc.vars {
			c.varConsIdx[c.varConsOff[v]+pos[v]] = int32(ci)
			pos[v]++
		}
	}

	gcnt := make([]int32, nv+1)
	for _, g := range c.groups {
		for _, v := range g {
			gcnt[v+1]++
		}
	}
	for v := 0; v < nv; v++ {
		gcnt[v+1] += gcnt[v]
	}
	c.groupsOfOff = gcnt
	c.groupsOfIdx = make([]int32, gcnt[nv])
	gpos := make([]int32, nv)
	for gi, g := range c.groups {
		for _, v := range g {
			c.groupsOfIdx[c.groupsOfOff[v]+gpos[v]] = int32(gi)
			gpos[v]++
		}
	}
}

// compGreedy builds one component's greedy incumbent, the one each
// work item starts from: it repeatedly sets the variable with the best
// deficit coverage per cost, skipping variables whose exclusivity
// peer is already set. Returns (nil, +Inf) when exclusivity strands a
// constraint.
func compGreedy(c *comp) ([]bool, float64) {
	nv := len(c.vars)
	x := make([]bool, nv)
	banned := make([]bool, nv)
	deficit := make([]int, len(c.cons))
	for i, cc := range c.cons {
		deficit[i] = cc.need
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
			break
		}
		bestV, bestScore := -1, 0.0
		for v := 0; v < nv; v++ {
			if x[v] || banned[v] {
				continue
			}
			cover := 0
			for i := c.varConsOff[v]; i < c.varConsOff[v+1]; i++ {
				if deficit[c.varConsIdx[i]] > 0 {
					cover++
				}
			}
			if cover == 0 {
				continue
			}
			score := float64(cover) / (c.costs[v] + 1e-9)
			if bestV < 0 || score > bestScore {
				bestV, bestScore = v, score
			}
		}
		if bestV < 0 {
			return nil, inf // stranded by exclusivity bans
		}
		x[bestV] = true
		for i := c.groupsOfOff[bestV]; i < c.groupsOfOff[bestV+1]; i++ {
			for _, u := range c.groups[c.groupsOfIdx[i]] {
				if u != bestV {
					banned[u] = true
				}
			}
		}
		for i := c.varConsOff[bestV]; i < c.varConsOff[bestV+1]; i++ {
			if deficit[c.varConsIdx[i]] > 0 {
				deficit[c.varConsIdx[i]]--
			}
		}
	}
	cost := 0.0
	for v, on := range x {
		if on {
			cost += c.costs[v]
		}
	}
	return x, cost
}

// subsetSorted reports whether sorted slice a is a subset of sorted b.
func subsetSorted(a, b []int) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j >= len(b) || b[j] != v {
			return false
		}
		j++
	}
	return true
}

func sortInts(s []int) {
	// Insertion sort: component root lists are tiny.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// byCost sorts local var ids by (cost, id) so the cheapest completion
// of a constraint is a prefix scan.
func byCost(ids []int, costs []float64) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0; j-- {
			a, b := ids[j], ids[j-1]
			if costs[a] < costs[b] || (costs[a] == costs[b] && a < b) {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			} else {
				break
			}
		}
	}
}
