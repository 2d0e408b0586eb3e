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
// and decomposes the residue into components. Every per-variable fact
// lives in an n-sized slice and every list — cleaned groups, residual
// constraints, component variables, constraints and groups — is carved
// from one flat buffer, so the allocation count does not grow with the
// number of constraints, groups or components. Constraint, variable
// and component order are those of the problem: components by their
// smallest variable, each component's variables ascending, and its
// constraints and groups in problem order.
func preprocess(p Problem, n int) *preprocessed {
	pre := &preprocessed{n: n, fixed: make([]int8, n)}
	cons := sanitize(p, n)

	// Clean exclusivity groups once: in-range, deduped, >= 2 members.
	// Group g is groupVars[groupOff[g]:groupOff[g+1]]; seen[v] == g+1
	// marks v as already kept for the group being cleaned.
	total := 0
	for _, g := range p.Exclusive {
		total += len(g)
	}
	seen := make([]int32, n)
	groupVars := make([]int, 0, total)
	groupOff := make([]int, 1, len(p.Exclusive)+1)
	for gi, g := range p.Exclusive {
		start := len(groupVars)
		groupVars = appendClean(groupVars, g, seen, int32(gi+1))
		if len(groupVars)-start >= 2 {
			groupOff = append(groupOff, len(groupVars))
		} else {
			groupVars = groupVars[:start]
		}
	}
	ng := len(groupOff) - 1
	group := func(g int) []int { return groupVars[groupOff[g]:groupOff[g+1]] }
	// The groups of v, ascending: groupsOfIdx[groupsOfOff[v]:groupsOfOff[v+1]].
	groupsOfOff := make([]int, n+1+len(groupVars))
	groupsOfIdx := groupsOfOff[n+1:]
	groupsOfOff = groupsOfOff[:n+1]
	csr(groupsOfOff, groupsOfIdx, ng, group)

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
		for _, gi := range groupsOfIdx[groupsOfOff[v]:groupsOfOff[v+1]] {
			for _, u := range group(gi) {
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

	// Forcing fixpoint: drop satisfied constraints, fix variables of
	// tight constraints (eff == free count), detect infeasibility. free
	// is one buffer reused for every residual.
	longest := 0
	for _, c := range cons {
		longest = max(longest, len(c.Vars))
	}
	free := make([]int, 0, longest)
	for changed := true; changed; {
		changed = false
		for i, c := range cons {
			if !live[i] {
				continue
			}
			var eff int
			free, eff = residual(free[:0], c, fixed)
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

	// The residual of every surviving constraint: its free variables
	// res[resOff[i]:resOff[i+1]] (ascending) and effective need eff[i].
	// Nothing is fixed from here on, so they stay exact.
	total = 0
	for i, c := range cons {
		if live[i] {
			total += len(c.Vars)
		}
	}
	res := make([]int, 0, total)
	resOff := make([]int, len(cons)+1)
	eff := make([]int, len(cons))
	liveCount := 0
	for i, c := range cons {
		if live[i] {
			res, eff[i] = residual(res, c, fixed)
			liveCount++
		}
		resOff[i+1] = len(res)
	}
	free = nil
	resid := func(i int) []int { return res[resOff[i]:resOff[i+1]] }

	// Dominance: if A's residual variables are a subset of B's and A
	// demands at least as much, any assignment satisfying A satisfies
	// B — drop B. Quadratic, so guarded by a size cap.
	if liveCount <= 512 {
		for a := range cons {
			if !live[a] {
				continue
			}
			for b := range cons {
				if a == b || !live[b] {
					continue
				}
				if eff[a] >= eff[b] && subsetSorted(resid(a), resid(b)) {
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
	ints := make([]int, 3*n)
	parent, compOf, local := ints[:n], ints[n:2*n], ints[2*n:]
	for i := range parent {
		parent[i] = i
	}
	find := func(v int) int {
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
	for i := range cons {
		if !live[i] {
			continue
		}
		r := resid(i)
		for _, v := range r {
			inCons[v] = true
		}
		for _, v := range r[1:] {
			union(r[0], v)
		}
	}
	// groupFree is the free members of group g that occur in some live
	// constraint, appended to dst.
	groupFree := func(dst []int, g int) []int {
		for _, v := range group(g) {
			if fixed[v] == 0 && inCons[v] {
				dst = append(dst, v)
			}
		}
		return dst
	}
	var mem []int
	for g := 0; g < ng; g++ {
		mem = groupFree(mem[:0], g)
		for j := 1; j < len(mem); j++ {
			union(mem[0], mem[j])
		}
	}

	// Materialize components in root order (deterministic: roots are
	// the smallest global id of their component); compOf maps a root to
	// its component.
	for v := range compOf {
		compOf[v] = -1
	}
	for i := range cons {
		if live[i] {
			compOf[find(res[resOff[i]])] = 0
		}
	}
	nc := 0
	for v, r := range compOf {
		if r == 0 {
			compOf[v] = nc
			nc++
		}
	}
	comps := make([]comp, nc)
	pre.comps = make([]*comp, nc)
	for ci := range comps {
		pre.comps[ci] = &comps[ci]
	}

	// Sizes first, so every list is carved from one buffer: variables,
	// constraints (with their variable totals) and groups per component.
	type sizes struct{ vars, cons, conVars, groups, groupVars int }
	sz := make([]sizes, nc)
	for v := 0; v < n; v++ {
		if fixed[v] == 0 && inCons[v] {
			sz[compOf[find(v)]].vars++
		}
	}
	for i := range cons {
		if live[i] {
			s := &sz[compOf[find(res[resOff[i]])]]
			s.cons++
			s.conVars += resOff[i+1] - resOff[i]
		}
	}
	for g := 0; g < ng; g++ {
		mem = groupFree(mem[:0], g)
		if len(mem) >= 2 {
			s := &sz[compOf[find(mem[0])]]
			s.groups++
			s.groupVars += len(mem)
		}
	}
	var nvTotal, ncon, nconVars, ngroups, ngroupVars int
	for _, s := range sz {
		nvTotal += s.vars
		ncon += s.cons
		nconVars += s.conVars
		ngroups += s.groups
		ngroupVars += s.groupVars
	}
	varBuf := make([]int, 0, nvTotal+2*nconVars+ngroupVars)
	costBuf := make([]float64, nvTotal)
	conBuf := make([]ccon, 0, ncon)
	groupBuf := make([][]int, 0, ngroups)
	csrBuf := make([]int32, 2*(nvTotal+nc)+nconVars+ngroupVars)
	greedyBuf := make([]bool, nvTotal)
	for ci := range comps {
		c, s := &comps[ci], sz[ci]
		c.vars = varBuf[len(varBuf) : len(varBuf) : len(varBuf)+s.vars]
		varBuf = varBuf[:len(varBuf)+s.vars]
		c.costs, costBuf = costBuf[:s.vars:s.vars], costBuf[s.vars:]
		c.cons = conBuf[len(conBuf) : len(conBuf) : len(conBuf)+s.cons]
		conBuf = conBuf[:len(conBuf)+s.cons]
		c.groups = groupBuf[len(groupBuf) : len(groupBuf) : len(groupBuf)+s.groups]
		groupBuf = groupBuf[:len(groupBuf)+s.groups]
		c.greedy, greedyBuf = greedyBuf[:s.vars:s.vars], greedyBuf[s.vars:]
	}
	for v := 0; v < n; v++ {
		if fixed[v] == 0 && inCons[v] {
			c := &comps[compOf[find(v)]]
			local[v] = len(c.vars)
			c.costs[len(c.vars)] = p.Costs[v]
			c.vars = append(c.vars, v)
		}
	}
	// carve returns the next k ints of varBuf.
	carve := func(k int) []int {
		out := varBuf[len(varBuf) : len(varBuf)+k : len(varBuf)+k]
		varBuf = varBuf[:len(varBuf)+k]
		return out
	}
	for i := range cons {
		if !live[i] {
			continue
		}
		r := resid(i)
		c := &comps[compOf[find(r[0])]]
		vars := carve(len(r))
		for j, v := range r {
			vars[j] = local[v]
		}
		sorted := carve(len(r))
		copy(sorted, vars)
		byCost(sorted, c.costs)
		c.cons = append(c.cons, ccon{vars: vars, sorted: sorted, need: eff[i]})
	}
	for g := 0; g < ng; g++ {
		mem = groupFree(mem[:0], g)
		if len(mem) < 2 {
			continue
		}
		c := &comps[compOf[find(mem[0])]]
		lg := carve(len(mem))
		for j, v := range mem {
			lg[j] = local[v]
		}
		c.groups = append(c.groups, lg)
	}
	var maxVars, maxCons int
	for _, s := range sz {
		maxVars, maxCons = max(maxVars, s.vars), max(maxCons, s.cons)
	}
	deficit, cover := make([]int, 0, maxCons), make([]int, 0, maxVars)
	banned := make([]bool, 0, maxVars)
	for ci := range comps {
		c := &comps[ci]
		csrBuf = c.buildCSR(csrBuf)
		deficit, cover, banned = c.greedySolve(deficit, cover, banned)
	}
	return pre
}

// residual appends c's free variables under fixed to dst and returns
// them with c's need less its variables fixed to 1.
func residual(dst []int, c Constraint, fixed []int8) ([]int, int) {
	eff := c.Need
	for _, v := range c.Vars {
		switch fixed[v] {
		case 1:
			eff--
		case 0:
			dst = append(dst, v)
		}
	}
	return dst, eff
}

// csr builds the CSR inverse of m lists over ids in [0, len(off)-1):
// afterwards the lists containing id v, ascending, are
// idx[off[v]:off[v+1]]. list(i) is the i'th list, idx has room for all
// their entries, and off must be zeroed.
func csr[T int | int32](off, idx []T, m int, list func(int) []int) {
	for i := 0; i < m; i++ {
		for _, v := range list(i) {
			off[v]++
		}
	}
	for v := 1; v < len(off); v++ {
		off[v] += off[v-1]
	}
	// off[v] is now the end of v's run; filling from the last list down
	// leaves it at the start, with the lists ascending.
	for i := m - 1; i >= 0; i-- {
		for _, v := range list(i) {
			off[v]--
			idx[off[v]] = T(i)
		}
	}
}

// buildCSR flattens the var->constraint and var->group adjacency into
// offset/index arrays, carved from the front of buf, so the search's
// incremental updates walk flat memory. It returns the rest of buf.
func (c *comp) buildCSR(buf []int32) []int32 {
	nv := len(c.vars)
	carve := func(k int) []int32 {
		out := buf[:k:k]
		buf = buf[k:]
		return out
	}
	c.varConsOff = carve(nv + 1)
	nidx := 0
	for _, cc := range c.cons {
		nidx += len(cc.vars)
	}
	c.varConsIdx = carve(nidx)
	csr(c.varConsOff, c.varConsIdx, len(c.cons), func(i int) []int { return c.cons[i].vars })

	c.groupsOfOff = carve(nv + 1)
	nidx = 0
	for _, g := range c.groups {
		nidx += len(g)
	}
	c.groupsOfIdx = carve(nidx)
	csr(c.groupsOfOff, c.groupsOfIdx, len(c.groups), func(i int) []int { return c.groups[i] })
	return buf
}

// greedySolve builds the component's greedy incumbent, the one each
// work item starts from, into c.greedy (zeroed, len(c.vars)): it
// repeatedly sets the variable covering the most unmet constraints per
// cost (ties to the lowest index), skipping variables whose
// exclusivity peer is already set. Each variable's count of unmet
// constraints is kept up to date as constraints are met, so a step
// costs one pass over the variables. c.greedy becomes nil and
// c.greedyCost +Inf when exclusivity strands a constraint. deficit,
// cover and banned are scratch, returned for reuse.
func (c *comp) greedySolve(deficit, cover []int, banned []bool) ([]int, []int, []bool) {
	nv := len(c.vars)
	x := c.greedy
	banned = append(banned[:0], make([]bool, nv)...)
	cover = append(cover[:0], make([]int, nv)...)
	deficit = deficit[:0]
	unmet := 0
	for _, cc := range c.cons {
		deficit = append(deficit, cc.need)
		if cc.need > 0 {
			unmet++
			for _, v := range cc.vars {
				cover[v]++
			}
		}
	}
	for unmet > 0 {
		bestV, bestScore := -1, 0.0
		for v := 0; v < nv; v++ {
			if x[v] || banned[v] || cover[v] == 0 {
				continue
			}
			score := float64(cover[v]) / (c.costs[v] + 1e-9)
			if bestV < 0 || score > bestScore {
				bestV, bestScore = v, score
			}
		}
		if bestV < 0 {
			// Stranded by exclusivity bans.
			c.greedy, c.greedyCost = nil, inf
			return deficit, cover, banned
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
			ci := c.varConsIdx[i]
			if deficit[ci] <= 0 {
				continue
			}
			if deficit[ci]--; deficit[ci] == 0 {
				unmet--
				for _, u := range c.cons[ci].vars {
					cover[u]--
				}
			}
		}
	}
	cost := 0.0
	for v, on := range x {
		if on {
			cost += c.costs[v]
		}
	}
	c.greedyCost = cost
	return deficit, cover, banned
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
