package remap

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"diffra/internal/adjacency"
	"diffra/internal/diffenc"
	"diffra/internal/ir"
)

// figure6Graph mimics the paper's Figure 6: a small register adjacency
// graph where the identity numbering pays but a permutation reaches
// cost 0 (RegN=3, DiffN=2).
func figure6Graph() *adjacency.CSR {
	// Edges chosen so identity (0,1,2) violates condition (3):
	// 1->0 has diff 2 (violation), 2->1 has diff 2 (violation).
	return adjacency.FromEdges(3, []adjacency.Edge{{From: 1, To: 0, W: 3}, {From: 2, To: 1, W: 2}})
}

func costOf(g *adjacency.CSR, perm []int, regN, diffN int) float64 {
	return g.PermCost(perm, regN, diffN)
}

func TestExhaustiveFindsZeroCost(t *testing.T) {
	g := figure6Graph()
	opts := Options{RegN: 3, DiffN: 2}
	id := Identity(3)
	if costOf(g, id, 3, 2) == 0 {
		t.Fatal("test premise broken: identity should pay")
	}
	res := Exhaustive(g, opts)
	if res.Cost != 0 {
		t.Fatalf("exhaustive cost = %v, want 0 (perm %v)", res.Cost, res.Perm)
	}
	if costOf(g, res.Perm, 3, 2) != res.Cost {
		t.Error("reported cost mismatch")
	}
}

func TestGreedyMatchesExhaustiveOnSmallGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		regN := 3 + rng.Intn(4) // 3..6
		diffN := 1 + rng.Intn(regN)
		var edges []adjacency.Edge
		for e := 0; e < 2+rng.Intn(8); e++ {
			edges = append(edges, adjacency.Edge{From: int32(rng.Intn(regN)), To: int32(rng.Intn(regN)), W: float64(1 + rng.Intn(5))})
		}
		g := adjacency.FromEdges(regN, edges)
		ex := Exhaustive(g, Options{RegN: regN, DiffN: diffN})
		gr := Greedy(g, Options{RegN: regN, DiffN: diffN, Restarts: 200, Seed: int64(trial)})
		if gr.Cost < ex.Cost {
			t.Fatalf("trial %d: greedy %v beat exhaustive %v — exhaustive broken", trial, gr.Cost, ex.Cost)
		}
		// With 200 restarts on <= 6 registers greedy should reach the
		// optimum on these tiny instances.
		if gr.Cost > ex.Cost {
			t.Errorf("trial %d (RegN=%d DiffN=%d): greedy %v > optimal %v", trial, regN, diffN, gr.Cost, ex.Cost)
		}
	}
}

func TestGreedyNeverWorseThanIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		regN := 8 + rng.Intn(8)
		var edges []adjacency.Edge
		for e := 0; e < 30; e++ {
			edges = append(edges, adjacency.Edge{From: int32(rng.Intn(regN)), To: int32(rng.Intn(regN)), W: float64(1 + rng.Intn(9))})
		}
		g := adjacency.FromEdges(regN, edges)
		opts := Options{RegN: regN, DiffN: regN / 2, Restarts: 10, Seed: 1}
		idCost := costOf(g, Identity(regN), regN, regN/2)
		res := Greedy(g, opts)
		if res.Cost > idCost {
			t.Errorf("trial %d: greedy %v worse than identity %v", trial, res.Cost, idCost)
		}
		assertPermutation(t, res.Perm)
	}
}

func TestPinnedRegistersStay(t *testing.T) {
	g := figure6Graph()
	opts := Options{RegN: 3, DiffN: 2, Pinned: map[int]bool{0: true}}
	for _, res := range []*Result{Exhaustive(g, opts), Greedy(g, Options{RegN: 3, DiffN: 2, Pinned: map[int]bool{0: true}, Restarts: 50})} {
		if res.Perm[0] != 0 {
			t.Errorf("pinned register moved: %v", res.Perm)
		}
		assertPermutation(t, res.Perm)
	}
}

func TestAutoSelectsStrategy(t *testing.T) {
	g := figure6Graph()
	res := Auto(g, Options{RegN: 3, DiffN: 2})
	if res.Cost != 0 {
		t.Errorf("auto on small graph should be exhaustive-optimal, cost %v", res.Cost)
	}
	// Larger graph: must still return a valid permutation quickly.
	rng := rand.New(rand.NewSource(2))
	var edges []adjacency.Edge
	for e := 0; e < 60; e++ {
		edges = append(edges, adjacency.Edge{From: int32(rng.Intn(16)), To: int32(rng.Intn(16)), W: 1})
	}
	big := adjacency.FromEdges(16, edges)
	res = Auto(big, Options{RegN: 16, DiffN: 8, Restarts: 20})
	assertPermutation(t, res.Perm)
}

func assertPermutation(t *testing.T, perm []int) {
	t.Helper()
	s := append([]int(nil), perm...)
	sort.Ints(s)
	for i, v := range s {
		if v != i {
			t.Fatalf("not a permutation: %v", perm)
		}
	}
}

// TestRemapComposesWithEncoder verifies the §5 pipeline end to end:
// allocate (here: identity numbering of a hand-written register
// program), build the register adjacency graph, remap, and confirm the
// true encoder cost did not increase and the encoding still decodes.
func TestRemapComposesWithEncoder(t *testing.T) {
	f := ir.MustParse(`
func f(v0, v3) {
entry:
  v5 = add v0, v3
  v1 = add v5, v0
  v6 = add v1, v3
  v2 = add v6, v5
  v4 = add v2, v1
  ret v4
}
`)
	const regN, diffN = 8, 2
	regOf := func(r ir.Reg) int { return int(r) }
	cfg := diffenc.Config{RegN: regN, DiffN: diffN}

	before, err := diffenc.Encode(f, regOf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := adjacency.BuildReg(f, regOf, regN)
	res := Greedy(g, Options{RegN: regN, DiffN: diffN, Restarts: 100, Seed: 3})

	remapped := func(r ir.Reg) int { return res.Perm[regOf(r)] }
	after, err := diffenc.Encode(f, remapped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffenc.Check(f, remapped, cfg, after); err != nil {
		t.Fatalf("remapped encoding undecodable: %v", err)
	}
	if after.Cost() > before.Cost() {
		t.Errorf("remapping increased true cost: %d -> %d", before.Cost(), after.Cost())
	}
}

// TestGreedyTerminatesOnNonDyadicWeights is the float-drift repro: at
// DiffN 1 every edge between distinct registers is violated under every
// numbering, so every swap is worth exactly zero and each restart is a
// local minimum after its first full probe pass (66 pairs plus the
// re-score). Weights like 10/3 have no exact float64 sum, and drift in
// an incrementally maintained float matrix made zero-gain swaps look
// negative, cycling every restart until a step guard fired. The
// fixed-point descent sees the zeros exactly.
func TestGreedyTerminatesOnNonDyadicWeights(t *testing.T) {
	const regN = 12
	var edges []adjacency.Edge
	for i := int32(0); i < regN; i++ {
		edges = append(edges, adjacency.Edge{From: i, To: (i + 1) % regN, W: 10.0 / 3}, adjacency.Edge{From: i, To: (i + 5) % regN, W: 20.0 / 3})
	}
	g := adjacency.FromEdges(regN, edges)
	res := Greedy(g, Options{RegN: regN, DiffN: 1, Restarts: 3, Seed: 1, Workers: 1})
	assertPermutation(t, res.Perm)
	if want := 3 * (regN*(regN-1)/2 + 1); res.Evaluated > want {
		t.Fatalf("evaluated %d, want <= %d: zero-gain swaps were taken", res.Evaluated, want)
	}
	if want := g.PermCost(res.Perm, regN, 1); res.Cost != want {
		t.Fatalf("cost %v, PermCost %v", res.Cost, want)
	}
}

// TestGreedyExtremeWeights: weights at the ends of float64's range, and
// beyond it, still give a terminating search, a valid permutation and a
// Cost equal to the permutation's own PermCost. +Inf is what
// ir.BlockFreqs' uncapped 10^depth yields 309 loops deep; 1e300 next to
// 1e-300 cannot share one exact fixed-point scale.
func TestGreedyExtremeWeights(t *testing.T) {
	cases := []struct {
		name string
		w    func(i int) float64
	}{
		{"inf", func(i int) float64 {
			if i%3 == 0 {
				return math.Inf(1)
			}
			return float64(i + 1)
		}},
		{"all-inf", func(int) float64 { return math.Inf(1) }},
		{"huge-and-tiny", func(i int) float64 {
			if i%2 == 0 {
				return 1e300
			}
			return 1e-300
		}},
		{"near-max", func(i int) float64 { return math.MaxFloat64 / float64(1+i%4) }},
		{"subnormal", func(i int) float64 { return math.SmallestNonzeroFloat64 * float64(1+i%5) }},
		{"nan", func(i int) float64 {
			if i%4 == 0 {
				return math.NaN()
			}
			return float64(i%7) + 0.5
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const regN = 12
			rng := rand.New(rand.NewSource(9))
			var edges []adjacency.Edge
			for i := 0; i < 40; i++ {
				edges = append(edges, adjacency.Edge{From: int32(rng.Intn(regN)), To: int32(rng.Intn(regN)), W: tc.w(i)})
			}
			c := adjacency.FromEdges(regN, edges)
			for _, diffN := range []int{1, 4, 8} {
				done := make(chan *Result, 1)
				go func() { done <- Greedy(c, Options{RegN: regN, DiffN: diffN, Restarts: 200, Seed: 3, Workers: 1}) }()
				var res *Result
				select {
				case res = <-done:
				case <-time.After(30 * time.Second):
					t.Fatalf("DiffN %d: search did not terminate", diffN)
				}
				assertPermutation(t, res.Perm)
				if want := c.PermCost(res.Perm, regN, diffN); math.Float64bits(res.Cost) != math.Float64bits(want) {
					t.Fatalf("DiffN %d: cost %v, PermCost %v", diffN, res.Cost, want)
				}
			}
		})
	}
}
