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
	if len(g.Moves) != 1 {
		t.Errorf("moves = %d, want 1", len(g.Moves))
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

func TestRewriteSpills(t *testing.T) {
	f := ir.MustParse(loopSrc)
	before := f.NumInstrs()
	slots := NewSlotAssigner()
	origin, inserted := RewriteSpills(f, map[ir.Reg]bool{2: true}, slots)
	if err := f.Verify(); err != nil {
		t.Fatalf("verify after rewrite: %v", err)
	}
	// v2: def in entry (store), use+def in body (load+store), use in exit (load).
	if inserted != 4 {
		t.Errorf("inserted = %d, want 4", inserted)
	}
	if f.NumInstrs() != before+4 {
		t.Errorf("instr count %d, want %d", f.NumInstrs(), before+4)
	}
	for tmp, orig := range origin {
		if orig != 2 {
			t.Errorf("origin[%d] = %d", tmp, orig)
		}
	}
	// v2 itself must no longer appear in the code.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, r := range append(append([]ir.Reg(nil), in.Defs...), in.Uses...) {
				if r == 2 {
					t.Fatalf("spilled v2 still referenced in %s", in)
				}
			}
		}
	}
	spills, total := SpillStats(f)
	if spills != 4 || total != before+4 {
		t.Errorf("SpillStats = %d/%d", spills, total)
	}
	// All spill ops use one slot.
	if slots.SlotOf(2) != 0 {
		t.Errorf("slot of v2 = %d", slots.SlotOf(2))
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
