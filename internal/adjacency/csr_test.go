package adjacency_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"diffra/internal/adjacency"
)

// randEdges draws a fuzzed edge list over n nodes, with the self loops,
// repeated pairs and zero weights FromEdges must drop or merge. Weights
// are small multiples of 0.25, so every cost sum is exact in float64
// whatever the summation order.
func randEdges(rng *rand.Rand, n int) []adjacency.Edge {
	edges := make([]adjacency.Edge, rng.Intn(4*n+1))
	for i := range edges {
		edges[i] = adjacency.Edge{From: int32(rng.Intn(n)), To: int32(rng.Intn(n)), W: 0.25 * float64(rng.Intn(41))}
	}
	return edges
}

// randNumbering maps nodes to registers, pinning some out of range:
// roughly one in four nodes is unallocated (-1), exercising the skip
// path on both sides of every edge.
func randNumbering(rng *rand.Rand, n, regN int) []int {
	m := make([]int, n)
	for i := range m {
		if rng.Intn(4) == 0 {
			m[i] = -1
		} else {
			m[i] = rng.Intn(regN)
		}
	}
	return m
}

// refGraph is the reference form of an adjacency graph: each (from, to)
// pair's weight, summed in walk order, with self loops and zero weights
// dropped.
type refGraph map[[2]int]float64

func (r refGraph) add(from, to int, w float64) {
	if from != to && w != 0 {
		r[[2]int{from, to}] += w
	}
}

// edges lists the pairs in (from, to) order.
func (r refGraph) edges() [][2]int {
	keys := make([][2]int, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// cost is the reference condition-(3) cost, summed in row order.
func (r refGraph) cost(regNoOf func(int) int, regN, diffN int) float64 {
	cost := 0.0
	for _, k := range r.edges() {
		rf, rt := regNoOf(k[0]), regNoOf(k[1])
		if rf >= 0 && rt >= 0 && !adjacency.Satisfied(rf, rt, regN, diffN) {
			cost += r[k]
		}
	}
	return cost
}

func refFromEdges(edges []adjacency.Edge) refGraph {
	r := refGraph{}
	for _, e := range edges {
		r.add(int(e.From), int(e.To), e.W)
	}
	return r
}

// assertMatchesRef checks every row and incidence entry of c against
// the reference, weights compared bit for bit: rows hold each node's
// out-edges in To order, and Inc(v) holds the edges touching v in
// (from, to) order.
func assertMatchesRef(t *testing.T, label string, c *adjacency.CSR, n int, ref refGraph) {
	t.Helper()
	if c.N != n {
		t.Fatalf("%s: N = %d, want %d", label, c.N, n)
	}
	keys := ref.edges()
	if c.NumEdges() != len(keys) {
		t.Fatalf("%s: %d edges, want %d", label, c.NumEdges(), len(keys))
	}
	same := func(got, want float64) bool { return math.Float64bits(got) == math.Float64bits(want) }
	i := 0
	for v := 0; v < n; v++ {
		to, w := c.Row(v)
		for k := range to {
			if key := keys[i]; key != [2]int{v, int(to[k])} || !same(w[k], ref[key]) {
				t.Fatalf("%s: row entry %d is %d->%d weight %v, want %d->%d weight %v",
					label, i, v, to[k], w[k], key[0], key[1], ref[key])
			}
			i++
		}
	}
	for v := 0; v < n; v++ {
		from, to, w := c.Inc(v)
		j := 0
		for _, key := range keys {
			if key[0] != v && key[1] != v {
				continue
			}
			if j >= len(w) || int(from[j]) != key[0] || int(to[j]) != key[1] || !same(w[j], ref[key]) {
				t.Fatalf("%s: Inc(%d) entry %d differs from %d->%d weight %v", label, v, j, key[0], key[1], ref[key])
			}
			j++
		}
		if j != len(w) {
			t.Fatalf("%s: Inc(%d) has %d entries, want %d", label, v, len(w), j)
		}
	}
}

// TestFreezePreservesEdges: on fuzzed edge lists, FromEdges keeps every
// distinct pair once, with its weights summed in input order, in both
// the row and the incidence form.
func TestFreezePreservesEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(20)
		edges := randEdges(rng, n)
		assertMatchesRef(t, "random", adjacency.FromEdges(n, edges), n, refFromEdges(edges))
	}
}

// TestCSRCostMatchesGraph: on fuzzed graphs and numberings — including
// unallocated (-1) nodes and numberings shorter than the node count —
// CSR.Cost and PermCost agree exactly with the reference cost.
func TestCSRCostMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(16)
		regN := 2 + rng.Intn(16)
		diffN := 1 + rng.Intn(regN)
		edges := randEdges(rng, n)
		ref := refFromEdges(edges)
		c := adjacency.FromEdges(n, edges)
		m := randNumbering(rng, n, regN)
		regNoOf := func(node int) int {
			if node < len(m) {
				return m[node]
			}
			return -1
		}

		want := ref.cost(regNoOf, regN, diffN)
		if got := c.Cost(regNoOf, regN, diffN); got != want {
			t.Fatalf("trial %d: CSR.Cost = %v, reference %v", trial, got, want)
		}
		if got := c.PermCost(m, regN, diffN); got != want {
			t.Fatalf("trial %d: CSR.PermCost = %v, reference %v", trial, got, want)
		}

		// A numbering shorter than the graph: nodes past its end are
		// unallocated (the regNoOf(node) == -1 path in remapping, where
		// the graph can outgrow RegN).
		if n > 1 {
			short := m[:1+rng.Intn(n-1)]
			shortOf := func(node int) int {
				if node < len(short) {
					return short[node]
				}
				return -1
			}
			if got, want := c.PermCost(short, regN, diffN), ref.cost(shortOf, regN, diffN); got != want {
				t.Fatalf("trial %d: short PermCost = %v, reference %v", trial, got, want)
			}
		}
	}
}

// TestSwapDeltaMatchesRescore checks the pair-probe against the whole-
// numbering oracle: for random swaps, PermCost(after) - PermCost(before)
// equals SwapDelta exactly (all weights exactly representable).
func TestSwapDeltaMatchesRescore(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		regN := 2 + rng.Intn(14)
		diffN := 1 + rng.Intn(regN)
		c := adjacency.FromEdges(regN, randEdges(rng, regN))
		perm := rng.Perm(regN)
		i := rng.Intn(regN)
		j := rng.Intn(regN)
		if i == j {
			continue
		}
		before := c.PermCost(perm, regN, diffN)
		delta := c.SwapDelta(perm, i, j, regN, diffN)
		perm[i], perm[j] = perm[j], perm[i]
		after := c.PermCost(perm, regN, diffN)
		if before+delta != after {
			t.Fatalf("trial %d (RegN=%d DiffN=%d swap %d,%d): before %v + delta %v != after %v",
				trial, regN, diffN, i, j, before, delta, after)
		}
	}
}

func TestFreezeEmptyAndIsolated(t *testing.T) {
	c := adjacency.FromEdges(0, nil)
	if c.NumEdges() != 0 || c.Cost(func(int) int { return 0 }, 4, 2) != 0 {
		t.Fatal("empty graph should have zero edges and zero cost")
	}
	c = adjacency.FromEdges(5, nil) // nodes but no edges
	perm := []int{4, 3, 2, 1, 0}
	if c.PermCost(perm, 5, 1) != 0 {
		t.Fatal("isolated nodes must cost nothing")
	}
	if c.SwapDelta(perm, 0, 4, 5, 1) != 0 {
		t.Fatal("swap in an edgeless graph must be free")
	}
	// Self loops and zero weights are dropped, not stored.
	c = adjacency.FromEdges(2, []adjacency.Edge{{From: 1, To: 1, W: 3}, {From: 0, To: 1, W: 0}})
	if c.NumEdges() != 0 {
		t.Fatalf("self loop or zero weight stored: %d edges", c.NumEdges())
	}
}
