package regalloc

import (
	"slices"
	"testing"

	"diffra/internal/ir"
	"diffra/internal/liveness"
)

const loopSrc = `
func sum(v0, v1) {
entry:
  v2 = li 0
  v3 = li 0
  jmp head
head:
  blt v3, v1 -> body, exit
body:
  v4 = load v0, 0
  v2 = add v2, v4
  v5 = li 1
  v3 = add v3, v5
  v0 = add v0, v5
  jmp head
exit:
  ret v2
}
`

// interferes reports whether u and v are listed as neighbors.
func interferes(g *Graph, u, v int) bool { return u != v && slices.Contains(g.AdjList[u], v) }

func buildGraph(t *testing.T, src string) (*ir.Func, *Graph) {
	t.Helper()
	f := ir.MustParse(src)
	return f, Build(f, liveness.Compute(f))
}

func TestInterferenceEdges(t *testing.T) {
	_, g := buildGraph(t, loopSrc)
	// Loop-carried registers all coexist across the backedge.
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}} {
		if !interferes(g, pair[0], pair[1]) || !interferes(g, pair[1], pair[0]) {
			t.Errorf("v%d and v%d must interfere", pair[0], pair[1])
		}
	}
	// v4 dies before v5 is defined: no interference.
	if interferes(g, 4, 5) {
		t.Error("v4 and v5 must not interfere")
	}
	for u, row := range g.AdjList {
		if slices.Contains(row, u) {
			t.Errorf("v%d listed as its own neighbor", u)
		}
	}
}

func TestMoveDoesNotInterfereWithSource(t *testing.T) {
	src := `
func f(v0) {
entry:
  v1 = mov v0
  v2 = add v1, v0
  ret v2
}
`
	_, g := buildGraph(t, src)
	// v1 = mov v0 with v0 still live after: the Chaitin move exception
	// keeps the pair coalescible.
	if interferes(g, 0, 1) {
		t.Error("move dst/src should not interfere")
	}
}

func TestParamsEntryClique(t *testing.T) {
	src := `
func f(v0, v1, v2) {
entry:
  ret v0
}
`
	f := ir.MustParse(src)
	info := liveness.Compute(f)
	g := Build(f, info)
	// Only v0 is live into entry (v1/v2 dead on arrival): clique trivial.
	_ = g
	src2 := `
func g(v0, v1) {
entry:
  v2 = add v0, v1
  ret v2
}
`
	_, g2 := buildGraph(t, src2)
	if !interferes(g2, 0, 1) {
		t.Error("co-live params must interfere")
	}
}

func TestDegree(t *testing.T) {
	_, g := buildGraph(t, loopSrc)
	if d := len(g.AdjList[1]); d < 3 {
		t.Errorf("degree(v1) = %d, want >= 3", d)
	}
}

func TestVerifyAcceptsValidColoring(t *testing.T) {
	f, g := buildGraph(t, loopSrc)
	// Greedy-color the graph with plenty of registers.
	asn := &Assignment{Color: make([]int, f.NumRegs()), K: f.NumRegs()}
	for v := 0; v < g.N; v++ {
		used := map[int]bool{}
		for _, n := range g.AdjList[v] {
			if n < v {
				used[asn.Color[n]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		asn.Color[v] = c
	}
	if err := Verify(f, asn); err != nil {
		t.Fatalf("Verify rejected valid coloring: %v", err)
	}
}

func TestVerifyRejectsConflict(t *testing.T) {
	f, _ := buildGraph(t, loopSrc)
	asn := &Assignment{Color: make([]int, f.NumRegs()), K: 8}
	// All zero: v0..v3 interfere and share color 0.
	if err := Verify(f, asn); err == nil {
		t.Fatal("Verify accepted conflicting coloring")
	}
}

func TestVerifyRejectsOutOfRange(t *testing.T) {
	f, g := buildGraph(t, loopSrc)
	asn := &Assignment{Color: make([]int, f.NumRegs()), K: 2}
	for v := 0; v < g.N; v++ {
		asn.Color[v] = v // valid coloring but outside [0,2)
	}
	if err := Verify(f, asn); err == nil {
		t.Fatal("Verify accepted out-of-range colors")
	}
}

// TestRewriteSpills spills a parameter and a local through
// Assignment.Spill: the parameter takes the first slot and moves to
// the stack, every occurrence goes through a fresh temporary numbered
// past the function's registers, and the counts are booked.
func TestRewriteSpills(t *testing.T) {
	f := ir.MustParse(loopSrc)
	before, n := f.NumInstrs(), f.NumRegs()
	head := f.BlockByName("head").Instrs
	slots := NewSlotAssigner()
	var asn Assignment
	asn.Spill(f, []int{2, 0}, slots)
	if err := f.Verify(); err != nil {
		t.Fatalf("verify after rewrite: %v", err)
	}
	// v2: def in entry (store), use+def in body (load+store), use in
	// exit (load); v0: two uses and a def in body.
	if asn.SpilledVRegs != 2 || asn.SpillInstrs != 7 {
		t.Errorf("booked %d vregs, %d instrs; want 2, 7", asn.SpilledVRegs, asn.SpillInstrs)
	}
	if f.NumInstrs() != before+7 {
		t.Errorf("instr count %d, want %d", f.NumInstrs(), before+7)
	}
	if !slices.Equal(f.Params, []ir.Reg{1}) || len(asn.StackParams) != 1 || asn.StackParams[0] != 0 {
		t.Errorf("params %v, stack params %v; want [v1] and v0 in slot 0", f.Params, asn.StackParams)
	}
	if slots.SlotOf(0) != 0 || slots.SlotOf(2) != 4 {
		t.Errorf("slots v0 %d, v2 %d; want 0 (parameters first), 4", slots.SlotOf(0), slots.SlotOf(2))
	}
	// The spilled vregs are gone, and each temporary occurs twice: in
	// its spill instruction and in the instruction it serves.
	occ := make([]int, f.NumRegs())
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, r := range append(append([]ir.Reg(nil), in.Defs...), in.Uses...) {
				if r == 0 || r == 2 {
					t.Fatalf("spilled v%d still referenced in %s", r, in)
				}
				occ[r]++
			}
		}
	}
	if f.NumRegs() != n+7 {
		t.Errorf("%d registers after the rewrite, want %d", f.NumRegs(), n+7)
	}
	for v := n; v < f.NumRegs(); v++ {
		if occ[v] != 2 {
			t.Errorf("temporary v%d occurs %d times, want 2", v, occ[v])
		}
	}
	spills, total := SpillStats(f)
	if spills != 7 || total != before+7 {
		t.Errorf("SpillStats = %d/%d", spills, total)
	}
	if got := f.BlockByName("head").Instrs; &got[0] != &head[0] {
		t.Error("a block with nothing spilled was rebuilt")
	}
}

func TestSlotAssignerDistinct(t *testing.T) {
	s := NewSlotAssigner()
	a := s.SlotOf(1)
	b := s.SlotOf(2)
	if a == b {
		t.Error("slots must be distinct")
	}
	if s.SlotOf(1) != a {
		t.Error("slot must be stable")
	}
}
