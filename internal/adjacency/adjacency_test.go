package adjacency_test

import (
	"testing"

	"diffra/internal/adjacency"
	"diffra/internal/ir"
)

// weight returns the weight of edge from->to, or 0 when there is none.
func weight(c *adjacency.CSR, from, to int) float64 {
	tos, ws := c.Row(from)
	for k, t := range tos {
		if int(t) == to {
			return ws[k]
		}
	}
	return 0
}

// figure5Func reconstructs the access pattern of the paper's Figure 5:
// live ranges L1..L6 (v1..v6 here) accessed in the sequence
// L1 L2 L3 L4 L1 L2 L5 L4 L6, yielding edge (L1,L2) with weight 2 and
// (L2,L3), (L3,L4), (L4,L1), (L2,L5), (L5,L4), (L4,L6) with weight 1.
// Single-field instructions (spill_store) realize the sequence
// exactly.
func figure5Func() *ir.Func {
	return ir.MustParse(`
func fig5(v1, v2, v3, v4, v5, v6) {
entry:
  spill_store v1, 0
  spill_store v2, 0
  spill_store v3, 0
  spill_store v4, 0
  spill_store v1, 0
  spill_store v2, 0
  spill_store v5, 0
  spill_store v4, 0
  spill_store v6, 0
  ret
}
`)
}

func TestFigure5Edges(t *testing.T) {
	g := adjacency.BuildVReg(figure5Func())
	if w := weight(g, 1, 2); w != 2 {
		t.Errorf("w(L1,L2) = %v, want 2", w)
	}
	for _, e := range [][2]int{{2, 3}, {3, 4}, {4, 1}, {2, 5}, {5, 4}, {4, 6}} {
		if w := weight(g, e[0], e[1]); w != 1 {
			t.Errorf("w(L%d,L%d) = %v, want 1", e[0], e[1], w)
		}
	}
	if g.NumEdges() != 7 {
		t.Errorf("edges = %d, want 7", g.NumEdges())
	}
	total := 0.0
	for v := 0; v < g.N; v++ {
		_, ws := g.Row(v)
		for _, w := range ws {
			total += w
		}
	}
	if total != 8 {
		t.Errorf("total weight = %v, want 8", total)
	}
}

func TestNoSelfLoops(t *testing.T) {
	// Adjacent accesses to the same live range (L2,L2 in §4) draw no
	// edge: difference 0 always encodes.
	f := ir.MustParse(`
func f(v1) {
entry:
  spill_store v1, 0
  spill_store v1, 0
  ret
}
`)
	g := adjacency.BuildVReg(f)
	if g.NumEdges() != 0 {
		t.Errorf("self-loop recorded: %d edges", g.NumEdges())
	}
}

func TestFigure5ZeroCostSolutionExists(t *testing.T) {
	// The paper's Figure 5.e gives an optimal assignment with RegN=3,
	// DiffN=2 where every edge satisfies condition (3): for each edge
	// (a,b), (reg(b)-reg(a)) mod 3 must be 0 or 1.
	g := adjacency.BuildVReg(figure5Func())
	// L1=0, L2=1, L3=2, L4=0, L5=2, L6=1 checks: 0->1 ok(1), 1->2 ok(1),
	// 2->0 ok(1), 0->0 ok(0), 1->2 ok(1), 2->0 ok(1), 0->1 ok(1).
	assign := map[int]int{1: 0, 2: 1, 3: 2, 4: 0, 5: 2, 6: 1}
	cost := g.Cost(func(n int) int {
		if r, ok := assign[n]; ok {
			return r
		}
		return -1
	}, 3, 2)
	if cost != 0 {
		t.Errorf("cost = %v, want 0", cost)
	}
	// A deliberately bad numbering pays on the violated edges.
	bad := map[int]int{1: 0, 2: 2, 3: 1, 4: 0, 5: 1, 6: 2}
	if c := g.Cost(func(n int) int { return bad[n] }, 3, 2); c == 0 {
		t.Error("adversarial numbering should have positive cost")
	}
}

func TestSatisfiedCondition3(t *testing.T) {
	// Condition (3): 0 <= (to - from) mod RegN < DiffN.
	if !adjacency.Satisfied(2, 3, 8, 2) || !adjacency.Satisfied(2, 2, 8, 2) {
		t.Error("in-range differences rejected")
	}
	if adjacency.Satisfied(3, 2, 8, 2) {
		t.Error("difference 7 accepted with DiffN=2")
	}
	if !adjacency.Satisfied(7, 0, 8, 2) {
		t.Error("wraparound difference 1 rejected")
	}
}

func TestCrossBlockWeightDividedByPreds(t *testing.T) {
	// The join block's first access pairs with both predecessors' last
	// accesses; each edge carries freq/|preds| (§4).
	f := ir.MustParse(`
func f(v0, v1, v2) {
entry:
  br v0 -> a, b
a:
  spill_store v1, 0
  jmp join
b:
  spill_store v2, 0
  jmp join
join:
  spill_store v0, 0
  ret
}
`)
	g := adjacency.BuildVReg(f)
	if w := weight(g, 1, 0); w != 0.5 {
		t.Errorf("w(v1,v0) = %v, want 0.5", w)
	}
	if w := weight(g, 2, 0); w != 0.5 {
		t.Errorf("w(v2,v0) = %v, want 0.5", w)
	}
	// Entry->a and entry->b edges: entry's last access is v0 (br use).
	if w := weight(g, 0, 1); w != 1 {
		t.Errorf("w(v0,v1) = %v, want 1", w)
	}
}

func TestLoopFrequencyWeighting(t *testing.T) {
	f := ir.MustParse(`
func f(v0, v1) {
entry:
  jmp head
head:
  blt v0, v1 -> body, exit
body:
  v0 = add v0, v1
  jmp head
exit:
  ret v0
}
`)
	g := adjacency.BuildVReg(f)
	// In-loop pair (v0,v1) in body carries weight 10 (depth 1); there
	// are two such adjacencies: head's blt pair and body's add pair.
	if w := weight(g, 0, 1); w < 10 {
		t.Errorf("w(v0,v1) = %v, want >= 10 (loop weighting)", w)
	}
}

func TestBuildRegMergesLiveRanges(t *testing.T) {
	// Post-allocation graph: two live ranges on the same register merge
	// into one node, making the graph denser per node (§5).
	f := ir.MustParse(`
func f(v1, v2, v3) {
entry:
  spill_store v1, 0
  spill_store v2, 0
  spill_store v3, 0
  ret
}
`)
	regOf := func(r ir.Reg) int {
		if r == 3 {
			return 0 // v3 shares R0 with v1
		}
		return int(r) - 1
	}
	g := adjacency.BuildReg(f, regOf, 2)
	// Sequence on registers: R0, R1, R0 -> edges R0->R1 and R1->R0.
	if weight(g, 0, 1) != 1 || weight(g, 1, 0) != 1 {
		t.Errorf("register graph edges wrong: %v %v", weight(g, 0, 1), weight(g, 1, 0))
	}
	if g.N != 2 {
		t.Errorf("N = %d, want 2", g.N)
	}
}
