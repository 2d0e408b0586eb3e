package remap

import (
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"diffra/internal/adjacency"
	"diffra/internal/telemetry"
)

// seededGraph is a seeded graph over n nodes; with n above the search's
// RegN some nodes lie outside the register file, and with n below it
// some registers have no node.
func seededGraph(seed int64, n, edges int) *adjacency.CSR {
	return adjacency.FromEdges(n, seededEdges(seed, n, edges))
}

func seededEdges(seed int64, n, edges int) []adjacency.Edge {
	rng := rand.New(rand.NewSource(seed))
	es := make([]adjacency.Edge, edges)
	for e := range es {
		// Quarter-integer weights keep every cost sum exact in float64,
		// so cross-worker cost comparisons are bitwise meaningful.
		es[e] = adjacency.Edge{From: int32(rng.Intn(n)), To: int32(rng.Intn(n)), W: 0.25 * float64(1+rng.Intn(20))}
	}
	return es
}

// TestParallelGreedyMatchesSerial is the determinism contract of the
// sharded search: over a seeded grid of graphs × RegN × DiffN, every
// worker count returns the same best cost AND the same permutation as
// the serial (Workers=1) run.
func TestParallelGreedyMatchesSerial(t *testing.T) {
	grid := []struct {
		regN, diffN, edges, restarts int
	}{
		{8, 4, 12, 40},
		{12, 8, 40, 60},
		{12, 4, 70, 60},
		{16, 8, 90, 50},
		{24, 6, 60, 30}, // sparse: many restarts reach cost 0 (early exit)
	}
	for _, tc := range grid {
		for gseed := int64(0); gseed < 4; gseed++ {
			g := seededGraph(gseed*31+7, tc.regN, tc.edges)
			var pinned map[int]bool
			if gseed%2 == 1 {
				pinned = map[int]bool{0: true, tc.regN - 1: true}
			}
			base := Options{
				RegN: tc.regN, DiffN: tc.diffN, Restarts: tc.restarts,
				Seed: gseed, Pinned: pinned, Workers: 1,
			}
			serial := Greedy(g, base)
			assertPermutation(t, serial.Perm)
			for _, workers := range []int{2, 8} {
				opts := base
				opts.Workers = workers
				got := Greedy(g, opts)
				if got.Cost != serial.Cost {
					t.Fatalf("regN=%d diffN=%d seed=%d workers=%d: cost %v != serial %v",
						tc.regN, tc.diffN, gseed, workers, got.Cost, serial.Cost)
				}
				for i := range serial.Perm {
					if got.Perm[i] != serial.Perm[i] {
						t.Fatalf("regN=%d diffN=%d seed=%d workers=%d: perm %v != serial %v",
							tc.regN, tc.diffN, gseed, workers, got.Perm, serial.Perm)
					}
				}
			}
		}
	}
}

// TestParallelTrajectoryDeterministic: the best-cost trajectory Greedy
// rebuilds from its workers' improving lists equals the rule applied
// to every restart in order — the first restart, then each whose cost
// is below the last recorded — at workers 1, 2 and 8. Non-finite
// weights reach the costs: a NaN-weighted edge that the identity
// satisfies makes every restart that violates it cost NaN, and an
// infinite edge between two pinned registers makes every restart cost
// +Inf.
func TestParallelTrajectoryDeterministic(t *testing.T) {
	nanEdges := append(seededEdges(3, 12, 50), adjacency.Edge{From: 0, To: 1, W: math.NaN()})
	infEdges := append(seededEdges(3, 12, 50), adjacency.Edge{From: 0, To: 11, W: math.Inf(1)})
	cases := []struct {
		name string
		g    *adjacency.CSR
		opts Options
	}{
		{"finite", seededGraph(3, 12, 50), Options{RegN: 12, DiffN: 4, Restarts: 40, Seed: 9}},
		{"nan", adjacency.FromEdges(12, nanEdges), Options{RegN: 12, DiffN: 4, Restarts: 40, Seed: 9}},
		{"inf", adjacency.FromEdges(12, infEdges), Options{RegN: 12, DiffN: 4, Restarts: 40, Seed: 9, Pinned: map[int]bool{0: true, 11: true}}},
	}
	for _, tc := range cases {
		// The rule over every restart's cost, run serially; like Greedy
		// it stops after the first zero-cost restart.
		e := newEngine(tc.g, tc.opts)
		s := e.newScratch()
		var want []float64
		nans := 0
		for r := 0; r < tc.opts.Restarts; r++ {
			cost := e.descend(s, r)
			if math.IsNaN(cost) {
				nans++
			}
			if r == 0 || cost < want[len(want)-1] {
				want = append(want, cost)
			}
			if cost == 0 {
				break
			}
		}
		switch {
		case tc.name == "nan" && (nans == 0 || math.IsNaN(want[0])):
			t.Fatalf("%s: %d NaN restarts, trajectory %v: want NaN costs after a finite first one", tc.name, nans, want)
		case tc.name == "inf" && !math.IsInf(want[0], 1):
			t.Fatalf("%s: trajectory %v, want +Inf", tc.name, want)
		}
		for _, workers := range []int{1, 2, 8} {
			tr := telemetry.New(&telemetry.CollectSink{})
			span := tr.Start("remap")
			opts := tc.opts
			opts.Workers, opts.Trace = workers, span
			Greedy(tc.g, opts)
			span.End()
			got, _ := span.Attr("trajectory").([]float64)
			if !slices.EqualFunc(got, want, sameBits) {
				t.Fatalf("%s workers=%d: trajectory %v, want %v", tc.name, workers, got, want)
			}
		}
	}
}

// TestTrajectoryFromWorkerLists feeds random restart costs, NaN and
// ±Inf among them, to random splits of the restarts across workers
// (each worker seeing its indices in ascending order, as par.For hands
// them out) and requires the rebuilt trajectory to equal the rule
// applied to all costs in restart order.
func TestTrajectoryFromWorkerLists(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}
	for trial := 0; trial < 2000; trial++ {
		costs := make([]float64, 1+rng.Intn(24))
		for r := range costs {
			costs[r] = float64(rng.Intn(8))
			if rng.Intn(4) == 0 {
				costs[r] = special[rng.Intn(len(special))]
			}
		}
		var want []float64
		for r, c := range costs {
			if r == 0 || c < want[len(want)-1] {
				want = append(want, c)
			}
		}
		bests := make([]workerBest, 1+rng.Intn(4))
		for r, c := range costs {
			bests[rng.Intn(len(bests))].note(r, c)
		}
		if got := trajectory(bests); !slices.EqualFunc(got, want, sameBits) {
			t.Fatalf("costs %v: trajectory %v, want %v", costs, got, want)
		}
	}
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// descendRescan is the reference descent: identical restart seeding,
// but every step scores all free pairs with CSR.SwapDelta on the
// float64 weights. The engine's descent — O(1) fixed-point probes
// against the incrementally maintained register-cost matrix — must
// match it move for move whenever the weights are exact: on
// quarter-integer weights every float sum is exact too, so the two
// arithmetics must agree on every sign and every tie, not just in
// quality.
//
// It also counts Result.Evaluated's share of the restart from its
// definition: every pair on the first step; on each later step the
// pairs with an endpoint that the previous swap of (i, j) touched, in
// {i, j} ∪ N(i) ∪ N(j) read off the CSR; and one re-score.
func descendRescan(e *engine, r int) (perm []int, cost float64, evaluated int) {
	perm = Identity(e.regN)
	e.shuffleFree(perm, r)
	free := e.free
	var touched map[int]bool // nil on the first step: every pair counts
	for {
		bi, bj := -1, -1
		bestDelta := 0.0
		for ii := 0; ii < len(free); ii++ {
			for jj := ii + 1; jj < len(free); jj++ {
				if touched == nil || touched[free[ii]] || touched[free[jj]] {
					evaluated++
				}
				if d := e.csr.SwapDelta(perm, free[ii], free[jj], e.regN, e.diffN); d < bestDelta {
					bestDelta, bi, bj = d, ii, jj
				}
			}
		}
		if bi < 0 {
			return perm, e.csr.PermCost(perm, e.regN, e.diffN), evaluated + 1
		}
		perm[free[bi]], perm[free[bj]] = perm[free[bj]], perm[free[bi]]
		touched = map[int]bool{free[bi]: true, free[bj]: true}
		for _, v := range []int{free[bi], free[bj]} {
			if v >= e.csr.N {
				continue
			}
			from, to, _ := e.csr.Inc(v)
			for k := range from {
				u := int(from[k])
				if u == v {
					u = int(to[k])
				}
				if slices.Contains(free, u) {
					touched[u] = true
				}
			}
		}
	}
}

// assertDescentMatchesRescan runs restarts 0..restarts-1 of the
// engine's descent and of descendRescan and fails on the first
// difference in permutation, cost or evaluation count.
func assertDescentMatchesRescan(t *testing.T, c *adjacency.CSR, opts Options, restarts int) {
	t.Helper()
	e := newEngine(c, opts)
	s := e.newScratch()
	for r := 0; r < restarts; r++ {
		s.evaluated = 0
		cost := e.descend(s, r)
		wantPerm, wantCost, wantEvaluated := descendRescan(e, r)
		if cost != wantCost {
			t.Fatalf("%+v restart %d: engine cost %v, rescan %v", opts, r, cost, wantCost)
		}
		for i := range wantPerm {
			if s.perm[i] != wantPerm[i] {
				t.Fatalf("%+v restart %d: engine perm %v, rescan %v", opts, r, s.perm, wantPerm)
			}
		}
		if s.evaluated != wantEvaluated {
			t.Fatalf("%+v restart %d: engine evaluated %d, rescan counts %d", opts, r, s.evaluated, wantEvaluated)
		}
	}
}

// TestPairInvalidationMatchesFullRescan holds the engine's descent to
// descendRescan's moves, costs and Evaluated count (which counts the
// pairs a swap invalidates) on both window forms of the cost matrix
// (DiffN <= RegN-DiffN keeps the satisfied window, wider DiffN the
// violated one) including their edges DiffN 1 and DiffN == RegN, graphs
// with nodes at or above RegN and graphs smaller than the register
// file, and no, one or several pinned registers.
func TestPairInvalidationMatchesFullRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	forms := map[bool]int{} // satisfied form -> cases seen
	for trial := 0; trial < 48; trial++ {
		regN := 6 + rng.Intn(14)
		n := regN
		switch trial % 3 {
		case 1:
			n = regN + 1 + rng.Intn(4) // nodes >= RegN
		case 2:
			n = regN - 1 - rng.Intn(3) // registers with no node
		}
		g := seededGraph(int64(trial), n, rng.Intn(6*regN))
		var pinned map[int]bool
		switch trial % 4 {
		case 1:
			pinned = map[int]bool{rng.Intn(regN): true}
		case 2:
			pinned = map[int]bool{}
			for len(pinned) < regN/3 {
				pinned[rng.Intn(regN)] = true
			}
		}
		for _, diffN := range []int{1, regN / 2, regN/2 + 1, regN - 1, regN, 1 + rng.Intn(regN)} {
			opts := Options{RegN: regN, DiffN: diffN, Seed: int64(trial), Pinned: pinned}
			forms[diffN <= regN-diffN]++
			assertDescentMatchesRescan(t, g, opts, 6)
		}
	}
	if forms[true] == 0 || forms[false] == 0 {
		t.Fatalf("window forms covered: %v", forms)
	}
}

// FuzzRemap checks the greedy engine against its two references on
// fuzzer-chosen graphs: the fixed-point descent matches the
// CSR.SwapDelta rescan move for move and in its Evaluated count
// (quarter-integer weights, so every float sum is exact), every result
// reports its own PermCost, and with at most 7 free registers Greedy
// never beats Exhaustive. The seed corpus is checked in under
// testdata/fuzz/FuzzRemap.
func FuzzRemap(f *testing.F) {
	f.Fuzz(func(t *testing.T, regN, diffN uint8, pinMask uint16, extra uint8, edges []byte) {
		rn := 2 + int(regN)%15
		dn := 1 + int(diffN)%rn
		n := rn + int(extra)%4 // nodes >= RegN when extra > 0
		pinned := map[int]bool{}
		for r := 0; r < rn && r < 16; r++ {
			if pinMask&(1<<r) != 0 {
				pinned[r] = true
			}
		}
		var es []adjacency.Edge
		for i := 0; i+2 < len(edges) && i < 3*64; i += 3 {
			es = append(es, adjacency.Edge{From: int32(int(edges[i]) % n), To: int32(int(edges[i+1]) % n), W: 0.25 * float64(1+int(edges[i+2])%40)})
		}
		c := adjacency.FromEdges(n, es)
		opts := Options{RegN: rn, DiffN: dn, Pinned: pinned, Seed: int64(extra), Restarts: 8, Workers: 1}
		assertDescentMatchesRescan(t, c, opts, 4)

		gr := Greedy(c, opts)
		assertPermutation(t, gr.Perm)
		if want := c.PermCost(gr.Perm, rn, dn); gr.Cost != want {
			t.Fatalf("%+v: greedy cost %v, PermCost %v", opts, gr.Cost, want)
		}
		if len(freeRegs(opts)) <= 7 {
			if ex := Exhaustive(c, opts); gr.Cost < ex.Cost {
				t.Fatalf("%+v: greedy %v beat exhaustive %v", opts, gr.Cost, ex.Cost)
			}
		}
	})
}

// TestGreedyFindsExhaustiveOptimum: on small register files §5's
// exhaustive search proves the optimum, and the multi-start must reach
// it.
func TestGreedyFindsExhaustiveOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		regN := 4 + rng.Intn(6)
		diffN := 1 + rng.Intn(regN)
		g := seededGraph(int64(trial)+500, regN, 2+rng.Intn(4*regN))
		opts := Options{RegN: regN, DiffN: diffN, Restarts: 150, Seed: int64(trial)}
		got, want := Greedy(g, opts).Cost, Exhaustive(g, opts).Cost
		if got != want {
			t.Errorf("trial %d (RegN=%d DiffN=%d): greedy %v, exhaustive %v", trial, regN, diffN, got, want)
		}
	}
}

// TestGreedyCancelStopsEarly: a firing Cancel stops the multi-start
// across every worker, still returning a usable permutation from the
// restarts already performed.
func TestGreedyCancelStopsEarly(t *testing.T) {
	g := seededGraph(1, 16, 80)
	for _, workers := range []int{1, 4} {
		var polls atomic.Int64
		cancel := func() bool { return polls.Add(1) > 3 }
		tr := telemetry.New(&telemetry.CollectSink{})
		span := tr.Start("remap")
		res := Greedy(g, Options{
			RegN: 16, DiffN: 4, Restarts: 100000, Seed: 1,
			Workers: workers, Cancel: cancel, Trace: span,
		})
		span.End()
		assertPermutation(t, res.Perm)
		performed := span.Counter("restarts")
		if performed < 1 || performed > float64(3+workers) {
			t.Errorf("workers=%d: %v restarts performed after cancel, want [1, %d]", workers, performed, 3+workers)
		}
	}
}

// TestExhaustiveCancelStopsEnumeration: a cancelled context must not
// burn through all RegN! permutations (the Auto path for small RegN).
func TestExhaustiveCancelStopsEnumeration(t *testing.T) {
	g := seededGraph(2, 10, 60)
	// 10 free registers: 10! = 3.6M leaves. Cancelling after the first
	// poll must stop within one stride.
	fired := false
	res := Exhaustive(g, Options{
		RegN: 10, DiffN: 3,
		Cancel: func() bool { fired = true; return true },
	})
	if !fired {
		t.Fatal("cancel was never polled")
	}
	assertPermutation(t, res.Perm)
	if res.Evaluated > 2*exhaustiveCancelStride {
		t.Fatalf("evaluated %d permutations after cancel, want <= %d", res.Evaluated, 2*exhaustiveCancelStride)
	}
}

// TestGreedyZeroCostEarlyExit: once a restart reaches cost zero the
// search stops instead of running the full restart budget, and the
// result is still deterministic.
func TestGreedyZeroCostEarlyExit(t *testing.T) {
	// A single-edge graph violated by the identity numbering
	// (diff(0, 11) = 11 >= DiffN): the first descent repairs it to 0.
	g := adjacency.FromEdges(12, []adjacency.Edge{{From: 0, To: 11, W: 4}})
	tr := telemetry.New(&telemetry.CollectSink{})
	span := tr.Start("remap")
	res := Greedy(g, Options{RegN: 12, DiffN: 2, Restarts: 100000, Seed: 1, Workers: 4, Trace: span})
	span.End()
	if res.Cost != 0 {
		t.Fatalf("cost %v, want 0", res.Cost)
	}
	if performed := span.Counter("restarts"); performed > 100 {
		t.Fatalf("%v restarts performed despite zero-cost early exit", performed)
	}
	serial := Greedy(g, Options{RegN: 12, DiffN: 2, Restarts: 100000, Seed: 1, Workers: 1})
	for i := range serial.Perm {
		if res.Perm[i] != serial.Perm[i] {
			t.Fatalf("early-exit perm %v != serial %v", res.Perm, serial.Perm)
		}
	}
}
