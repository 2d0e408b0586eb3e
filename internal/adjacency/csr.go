package adjacency

import "sort"

// CSR is the frozen, immutable compressed-sparse-row form of a Graph,
// built once per search by Freeze. It stores the same directed weighted
// edges twice, both in flat slices:
//
//   - a directed row form (rowPtr/rowTo/rowW), edges sorted by
//     (from, to), for whole-numbering cost sweeps, and
//   - an incidence form (incPtr/incFrom/incTo/incW): for every node v,
//     the edges touching v in either direction, for the O(deg) probes
//     of the remapping search and differential select.
//
// Unlike the builder Graph, whose map-of-maps iterates in randomized
// order, a CSR walk is fully deterministic, so floating-point cost
// sums are bit-identical from run to run.
type CSR struct {
	// N is the node count (nodes are 0..N-1).
	N int

	rowPtr []int32
	rowTo  []int32
	rowW   []float64

	incPtr  []int32
	incFrom []int32
	incTo   []int32
	incW    []float64
}

// Freeze builds the CSR form of g. The Graph remains the mutable
// builder API; Freeze is a snapshot — later AddWeight calls do not
// affect the returned CSR.
func (g *Graph) Freeze() *CSR {
	type edge struct {
		from, to int32
		w        float64
	}
	edges := make([]edge, 0, g.NumEdges())
	g.Edges(func(from, to int, w float64) {
		edges = append(edges, edge{int32(from), int32(to), w})
	})
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})

	c := &CSR{
		N:      g.N,
		rowPtr: make([]int32, g.N+1),
		rowTo:  make([]int32, len(edges)),
		rowW:   make([]float64, len(edges)),
		incPtr: make([]int32, g.N+1),
	}
	for i, e := range edges {
		c.rowPtr[e.from+1]++
		c.rowTo[i] = e.to
		c.rowW[i] = e.w
		// Every edge appears in the incidence of both endpoints
		// (AddWeight rejects self loops, so from != to).
		c.incPtr[e.from+1]++
		c.incPtr[e.to+1]++
	}
	for v := 0; v < g.N; v++ {
		c.rowPtr[v+1] += c.rowPtr[v]
		c.incPtr[v+1] += c.incPtr[v]
	}
	c.incFrom = make([]int32, c.incPtr[g.N])
	c.incTo = make([]int32, c.incPtr[g.N])
	c.incW = make([]float64, c.incPtr[g.N])
	fill := make([]int32, g.N)
	put := func(v int32, e edge) {
		k := c.incPtr[v] + fill[v]
		fill[v]++
		c.incFrom[k] = e.from
		c.incTo[k] = e.to
		c.incW[k] = e.w
	}
	for _, e := range edges {
		put(e.from, e)
		put(e.to, e)
	}
	return c
}

// NumEdges counts directed edges.
func (c *CSR) NumEdges() int { return len(c.rowTo) }

// Inc returns node v's incidence slices: for every k, the edge
// (from[k] -> to[k], w[k]) touches v (v is one of the endpoints). The
// slices are views into the CSR and must not be modified.
func (c *CSR) Inc(v int) (from, to []int32, w []float64) {
	lo, hi := c.incPtr[v], c.incPtr[v+1]
	return c.incFrom[lo:hi], c.incTo[lo:hi], c.incW[lo:hi]
}

// Row returns node v's outgoing edges as parallel slices: for every k,
// the edge (v -> to[k], w[k]). The slices are views into the CSR and
// must not be modified.
func (c *CSR) Row(v int) (to []int32, w []float64) {
	lo, hi := c.rowPtr[v], c.rowPtr[v+1]
	return c.rowTo[lo:hi], c.rowW[lo:hi]
}

// Cost is Graph.Cost on the frozen form: the total weight of edges
// whose endpoint numbers violate condition (3). regNoOf maps a node to
// its register number; nodes mapped to -1 (unallocated) are skipped.
func (c *CSR) Cost(regNoOf func(node int) int, regN, diffN int) float64 {
	cost := 0.0
	for from := 0; from < c.N; from++ {
		lo, hi := c.rowPtr[from], c.rowPtr[from+1]
		if lo == hi {
			continue
		}
		rf := regNoOf(from)
		if rf < 0 {
			continue
		}
		for k := lo; k < hi; k++ {
			if rt := regNoOf(int(c.rowTo[k])); rt >= 0 && !Satisfied(rf, rt, regN, diffN) {
				cost += c.rowW[k]
			}
		}
	}
	return cost
}

// NodeCost is Graph.NodeCost on the frozen form: the violated weight
// over edges incident to v (in either direction).
func (c *CSR) NodeCost(v int, regNoOf func(node int) int, regN, diffN int) float64 {
	rv := regNoOf(v)
	if rv < 0 {
		return 0
	}
	cost := 0.0
	from, to, w := c.Inc(v)
	for k := range w {
		if int(from[k]) == v {
			if rt := regNoOf(int(to[k])); rt >= 0 && !Satisfied(rv, rt, regN, diffN) {
				cost += w[k]
			}
		} else {
			if rf := regNoOf(int(from[k])); rf >= 0 && !Satisfied(rf, rv, regN, diffN) {
				cost += w[k]
			}
		}
	}
	return cost
}

// PermCost evaluates the cost of a register numbering given as a
// slice: perm[node] is the node's register, in [0, regN) or -1 for
// unallocated; nodes >= len(perm) are skipped. This is the search hot
// path — branch-light integer math on flat slices, no closures.
func (c *CSR) PermCost(perm []int, regN, diffN int) float64 {
	n := c.N
	if n > len(perm) {
		n = len(perm)
	}
	cost := 0.0
	for from := 0; from < n; from++ {
		rf := perm[from]
		if rf < 0 {
			continue
		}
		for k := c.rowPtr[from]; k < c.rowPtr[from+1]; k++ {
			to := int(c.rowTo[k])
			if to >= len(perm) {
				continue
			}
			rt := perm[to]
			if rt < 0 {
				continue
			}
			// Inlined condition (3): diffenc.Diff(rf, rt, regN) < diffN,
			// specialized to rf, rt in [0, regN).
			d := rt - rf
			if d < 0 {
				d += regN
			}
			if d >= diffN {
				cost += c.rowW[k]
			}
		}
	}
	return cost
}

// SwapDelta returns the cost change of swapping perm[i] and perm[j]
// under PermCost semantics, in one pass over the edges incident to i
// or j (each counted once). Entries of perm must be registers in
// [0, regN) or -1; the delta an edge contributes is computed from the
// same integer math as PermCost, so applying the swap and re-scoring
// yields exactly cost+delta up to float summation order. An index at
// or above N (a register no graph node maps to) has no edges.
func (c *CSR) SwapDelta(perm []int, i, j, regN, diffN int) float64 {
	delta := 0.0
	pi, pj := perm[i], perm[j]
	for pass := 0; pass < 2; pass++ {
		v := i
		if pass == 1 {
			v = j
		}
		if v >= c.N {
			continue
		}
		from, to, w := c.Inc(v)
		for k := range w {
			f, t := int(from[k]), int(to[k])
			if pass == 1 && (f == i || t == i) {
				continue // already counted from i's incidence
			}
			if f >= len(perm) || t >= len(perm) {
				continue
			}
			rf, rt := perm[f], perm[t]
			if rf < 0 || rt < 0 {
				continue
			}
			// Endpoint registers after the swap.
			nf, nt := rf, rt
			if f == i {
				nf = pj
			} else if f == j {
				nf = pi
			}
			if t == i {
				nt = pj
			} else if t == j {
				nt = pi
			}
			od := violDiff(rf, rt, regN)
			nd := violDiff(nf, nt, regN)
			if od >= diffN && nd < diffN {
				delta -= w[k]
			} else if od < diffN && nd >= diffN {
				delta += w[k]
			}
		}
	}
	return delta
}

// violDiff is diffenc.Diff specialized to registers in [0, regN).
func violDiff(rf, rt, regN int) int {
	d := rt - rf
	if d < 0 {
		d += regN
	}
	return d
}
