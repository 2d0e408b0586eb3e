package adjacency

import (
	"cmp"
	"slices"
)

// CSR is an adjacency graph in compressed-sparse-row form, built once
// by FromEdges and immutable after. It stores each directed weighted
// edge twice, both in flat slices:
//
//   - a directed row form (rowPtr/rowTo/rowW), edges sorted by
//     (from, to), for whole-numbering cost sweeps, and
//   - an incidence form (incPtr/incFrom/incTo/incW): for every node v,
//     the edges touching v in either direction, in (from, to) order,
//     for the O(deg) probes of the remapping search and differential
//     select.
//
// Every walk is in a fixed order, so floating-point cost sums are
// bit-identical from run to run.
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

// Edge is one adjacent pair of the access sequence: To follows From,
// weighing W.
type Edge struct {
	From, To int32
	W        float64
}

// FromEdges builds the CSR of an n-node graph from edges in walk order.
// Edges sharing (From, To) merge into one whose weight is their sum,
// taken left to right in input order. Self loops are dropped — an
// access immediately following an access to the same node always
// encodes as difference 0 (§4) — and so are zero weights. Endpoints
// must lie in [0, n).
func FromEdges(n int, edges []Edge) *CSR {
	c := &CSR{N: n, rowPtr: make([]int32, n+1), incPtr: make([]int32, n+1)}
	keep := func(e Edge) bool { return e.From != e.To && e.W != 0 }

	// Group by From, stably: a counting sort.
	for _, e := range edges {
		if keep(e) {
			c.rowPtr[e.From+1]++
		}
	}
	for v := 0; v < n; v++ {
		c.rowPtr[v+1] += c.rowPtr[v]
	}
	grouped := make([]Edge, c.rowPtr[n])
	fill := slices.Clone(c.rowPtr[:n])
	for _, e := range edges {
		if keep(e) {
			grouped[fill[e.From]] = e
			fill[e.From]++
		}
	}

	// Order each row by To, stably, and merge each run of one (From, To)
	// in place, summing in input order.
	m := int32(0)
	for v := 0; v < n; v++ {
		row := grouped[c.rowPtr[v]:c.rowPtr[v+1]]
		slices.SortStableFunc(row, func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
		c.rowPtr[v] = m
		for i, e := range row {
			if i > 0 && e.To == grouped[m-1].To {
				grouped[m-1].W += e.W
				continue
			}
			grouped[m] = e
			m++
		}
	}
	c.rowPtr[n] = m
	edges = grouped[:m]

	c.rowTo = make([]int32, m)
	c.rowW = make([]float64, m)
	for i, e := range edges {
		c.rowTo[i], c.rowW[i] = e.To, e.W
		c.incPtr[e.From+1]++
		c.incPtr[e.To+1]++
	}
	for v := 0; v < n; v++ {
		c.incPtr[v+1] += c.incPtr[v]
	}
	c.incFrom = make([]int32, c.incPtr[n])
	c.incTo = make([]int32, c.incPtr[n])
	c.incW = make([]float64, c.incPtr[n])
	copy(fill, c.incPtr[:n])
	for _, e := range edges {
		for _, v := range [2]int32{e.From, e.To} {
			k := fill[v]
			fill[v]++
			c.incFrom[k], c.incTo[k], c.incW[k] = e.From, e.To, e.W
		}
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

// Cost evaluates the differential-encoding cost of a numbering: the
// total weight of edges whose endpoint numbers violate condition (3).
// regNoOf maps a node to its register number; nodes mapped to -1
// (unallocated) are skipped.
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
