package ospill

import (
	"fmt"
	"strings"
	"testing"

	"diffra/internal/ir"
	"diffra/internal/liveness"
	"diffra/internal/regalloc"
	"diffra/internal/telemetry"
	"diffra/internal/workloads"
)

// pressure6 keeps six values live at once inside a loop.
const pressure6 = `
func p6(v0, v1, v2, v3, v4, v5) {
entry:
  jmp head
head:
  blt v0, v1 -> body, exit
body:
  v0 = add v0, v1
  v1 = add v1, v2
  v2 = add v2, v3
  v3 = add v3, v4
  v4 = add v4, v5
  v5 = add v5, v0
  jmp head
exit:
  v0 = add v0, v1
  v0 = add v0, v2
  v0 = add v0, v3
  v0 = add v0, v4
  v0 = add v0, v5
  ret v0
}
`

func TestSpillProblemShape(t *testing.T) {
	f := ir.MustParse(pressure6)
	p := SpillProblem(f, 4)
	if len(p.Constraints) == 0 {
		t.Fatal("pressure 6 > 4 must produce constraints")
	}
	for _, c := range p.Constraints {
		if c.Need < 1 || c.Need > len(c.Vars) {
			t.Errorf("bad constraint %+v", c)
		}
		// Need = pressure - K, and pressure = len(Vars) at that point.
		if c.Need != len(c.Vars)-4 {
			t.Errorf("constraint need %d with %d vars (K=4)", c.Need, len(c.Vars))
		}
	}
	// With K = 6 no constraints.
	if p := SpillProblem(f, 6); len(p.Constraints) != 0 {
		t.Errorf("K=6 should have no constraints, got %d", len(p.Constraints))
	}
}

func TestDecideSpillsReducesPressure(t *testing.T) {
	f := ir.MustParse(pressure6)
	spills, _, st := Decide(f, Options{K: 4, DisableLoopSpills: true})
	if !st.ILPOptimal {
		t.Error("small instance must solve to optimality")
	}
	if len(spills) != 2 {
		t.Errorf("spilled %v, want exactly 2 ranges (pressure 6, K 4)", spills)
	}
	// Rewriting with the chosen set must bring MaxPressure near K.
	work := f.Clone()
	new(regalloc.Assignment).Spill(work, spills, regalloc.NewSlotAssigner())
	if p := liveness.Compute(work).MaxPressure(); p > 6 {
		t.Errorf("post-spill pressure %d, want <= 6 (K plus transient reload temps)", p)
	}
}

func TestDecideSpillsPicksCheapRanges(t *testing.T) {
	// v4 and v5 are used only outside the loop: the optimal solver must
	// prefer them over loop-hot ranges.
	src := `
func f(v0, v1, v2, v3, v4, v5) {
entry:
  jmp head
head:
  blt v0, v1 -> body, exit
body:
  v0 = add v0, v1
  v1 = add v1, v2
  v2 = add v2, v3
  v3 = add v3, v0
  jmp head
exit:
  v0 = add v0, v4
  v0 = add v0, v5
  v0 = add v0, v1
  v0 = add v0, v2
  v0 = add v0, v3
  ret v0
}
`
	f := ir.MustParse(src)
	spills, _, st := Decide(f, Options{K: 4, DisableLoopSpills: true})
	if !st.ILPOptimal {
		t.Fatal("must be optimal")
	}
	for _, r := range spills {
		if r != 4 && r != 5 {
			t.Errorf("spilled hot range v%d; optimal set is {v4, v5} (got %v)", r, spills)
		}
	}
}

func TestAllocateEndToEnd(t *testing.T) {
	f := ir.MustParse(pressure6)
	out, asn, st, err := Allocate(f, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := regalloc.Verify(out, asn); err != nil {
		t.Fatal(err)
	}
	if st.ILPSpilled == 0 {
		t.Error("expected ILP spills")
	}
	if asn.SpillInstrs == 0 {
		t.Error("spill instructions must be counted")
	}
}

func TestAllocateNoPressureNoSpills(t *testing.T) {
	f := ir.MustParse(pressure6)
	out, asn, st, err := Allocate(f, Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.ILPSpilled != 0 || asn.SpilledVRegs != 0 {
		t.Errorf("no spills expected at K=8: %+v %+v", st, asn)
	}
	if err := regalloc.Verify(out, asn); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalBeatsIRCWhenCheapRangesExist(t *testing.T) {
	// Where the optimal allocator shines: cold ranges can absorb all
	// the pressure. v4/v5 live across the loop but are used only in the
	// exit block; the ILP spills exactly those, while IRC's
	// cost/degree heuristic may do the same — the invariant asserted is
	// that optimal never spills hot loop code.
	src := `
func f(v0, v1, v2, v3, v4, v5) {
entry:
  jmp head
head:
  blt v0, v1 -> body, exit
body:
  v0 = add v0, v1
  v1 = add v1, v2
  v2 = add v2, v3
  v3 = add v3, v0
  jmp head
exit:
  v6 = add v0, v1
  v6 = add v6, v2
  v6 = add v6, v3
  v6 = add v6, v4
  v6 = add v6, v5
  ret v6
}
`
	f := ir.MustParse(src)
	out, asn, st, err := Allocate(f, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := regalloc.Verify(out, asn); err != nil {
		t.Fatal(err)
	}
	if !st.ILPOptimal {
		t.Fatal("expected optimal solve")
	}
	// No spill instruction may appear inside the loop body.
	body := out.BlockByName("body")
	for _, in := range body.Instrs {
		if in.Op == ir.OpSpillLoad || in.Op == ir.OpSpillStore {
			t.Errorf("optimal spilling placed spill code in hot loop: %s", in)
		}
	}
	// Sanity: IRC still produces a valid allocation here.
	ircOut, ircAsn, err := allocIRC(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := regalloc.Verify(ircOut, ircAsn); err != nil {
		t.Fatal(err)
	}
}

// TestNonOptimalCounterIncrements starves the solver with MaxNodes=1
// so it falls back to the greedy incumbent, and asserts the silent
// quality degradation is surfaced: Stats.ILPOptimal is false, the
// allocation still verifies, and the process-wide spill_nonoptimal
// counter (rendered by `diffra -metrics`) ticks.
func TestNonOptimalCounterIncrements(t *testing.T) {
	before := telemetry.Default.Counter("spill_nonoptimal").Value()
	// Two clusters of 10 chain-overlapping ranges: hard enough that a
	// one-node budget cannot close the search (preprocessing alone
	// solves simpler shapes like pressure6 exactly).
	var b strings.Builder
	b.WriteString("func starve(v0) {\nentry:\n")
	for i := 1; i <= 10; i++ {
		fmt.Fprintf(&b, "  v%d = li %d\n", i, i)
	}
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&b, "  v%d = add v%d, v%d\n", 11+i, 1+i, 1+(i+1)%10)
	}
	acc := 11
	for i := 1; i < 10; i++ {
		fmt.Fprintf(&b, "  v%d = xor v%d, v%d\n", 21+i-1, acc, 11+i)
		acc = 21 + i - 1
	}
	fmt.Fprintf(&b, "  ret v%d\n}\n", acc)
	f := ir.MustParse(b.String())
	out, asn, st, err := Allocate(f, Options{K: 6, MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.ILPOptimal {
		t.Fatal("MaxNodes=1 solve claims optimality")
	}
	if err := regalloc.Verify(out, asn); err != nil {
		t.Fatal(err)
	}
	if got := telemetry.Default.Counter("spill_nonoptimal").Value(); got != before+1 {
		t.Fatalf("spill_nonoptimal = %d, want %d", got, before+1)
	}
	var buf strings.Builder
	telemetry.Default.WriteText(&buf)
	if !strings.Contains(buf.String(), "spill_nonoptimal") {
		t.Fatalf("metrics text output missing spill_nonoptimal:\n%s", buf.String())
	}
}

// BenchmarkOspillDecide measures the end-to-end exact-spill decision on
// the susan kernel: with loop spills at K=6, where register pressure
// forces a non-trivial ILP, and whole-range at K=8 (susan-whole). The
// lane names avoid a trailing -N, which cmd/benchjson would read as
// the GOMAXPROCS suffix.
func BenchmarkOspillDecide(b *testing.B) {
	f := workloads.KernelByName("susan").F
	for _, lane := range []struct {
		name  string
		k     int
		whole bool
	}{
		{"susan", 6, false},
		{"susan-whole", 8, true},
	} {
		b.Run(lane.name, func(b *testing.B) {
			b.ReportAllocs()
			nodes := 0
			for i := 0; i < b.N; i++ {
				_, _, st := Decide(f, Options{K: lane.k, DisableLoopSpills: lane.whole})
				nodes += st.ILPNodes
			}
			b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}
