package irc

import (
	"fmt"
	"math/rand"
	"testing"

	"diffra/internal/ir"
	"diffra/internal/liveness"
	"diffra/internal/regalloc"
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

func allocOK(t *testing.T, src string, k int) (*ir.Func, *regalloc.Assignment) {
	t.Helper()
	f := ir.MustParse(src)
	out, asn, err := Allocate(f, Options{K: k})
	if err != nil {
		t.Fatalf("Allocate K=%d: %v", k, err)
	}
	if err := out.Verify(); err != nil {
		t.Fatalf("output IR invalid: %v", err)
	}
	if err := regalloc.Verify(out, asn); err != nil {
		t.Fatalf("allocation invalid: %v", err)
	}
	return out, asn
}

func TestAllocateNoSpillWhenEnoughRegs(t *testing.T) {
	_, asn := allocOK(t, loopSrc, 8)
	if asn.SpilledVRegs != 0 || asn.SpillInstrs != 0 {
		t.Errorf("unexpected spills: %+v", asn)
	}
}

func TestAllocateExactPressure(t *testing.T) {
	// MaxPressure of loopSrc is 5; K=5 must color without spills.
	_, asn := allocOK(t, loopSrc, 5)
	if asn.SpilledVRegs != 0 {
		t.Errorf("spilled %d with K=5", asn.SpilledVRegs)
	}
}

func TestAllocateSpillsUnderPressure(t *testing.T) {
	out, asn := allocOK(t, loopSrc, 3)
	if asn.SpilledVRegs == 0 || asn.SpillInstrs == 0 {
		t.Fatalf("expected spills at K=3: %+v", asn)
	}
	spills, _ := regalloc.SpillStats(out)
	if spills != asn.SpillInstrs {
		t.Errorf("SpillStats %d != asn.SpillInstrs %d", spills, asn.SpillInstrs)
	}
}

func TestFewerRegistersNeverFewerSpills(t *testing.T) {
	prev := -1
	for _, k := range []int{12, 8, 6, 4, 3, 2} {
		f := ir.MustParse(loopSrc)
		out, asn, err := Allocate(f, Options{K: k})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if err := regalloc.Verify(out, asn); err != nil {
			t.Fatalf("K=%d verify: %v", k, err)
		}
		if prev >= 0 && asn.SpillInstrs < prev {
			t.Errorf("K=%d spills %d < previous larger-K spills %d", k, asn.SpillInstrs, prev)
		}
		prev = asn.SpillInstrs
	}
}

func TestCoalescingRemovesMoves(t *testing.T) {
	src := `
func f(v0) {
entry:
  v1 = mov v0
  v2 = add v1, v1
  v3 = mov v2
  ret v3
}
`
	out, asn := allocOK(t, src, 4)
	if asn.CoalescedMoves == 0 {
		t.Error("no moves coalesced")
	}
	for _, b := range out.Blocks {
		for _, in := range b.Instrs {
			if in.IsMove() {
				t.Errorf("residual move %s", in)
			}
		}
	}
}

func TestMoveBetweenInterferingStays(t *testing.T) {
	// v0 live across the move's def: constrained, cannot coalesce.
	src := `
func f(v0) {
entry:
  v1 = mov v0
  v1 = add v1, v0
  v2 = add v1, v0
  ret v2
}
`
	f := ir.MustParse(src)
	out, asn, err := Allocate(f, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := regalloc.Verify(out, asn); err != nil {
		t.Fatal(err)
	}
	if asn.Color[0] == asn.Color[1] {
		t.Error("interfering move pair shares a register")
	}
}

func TestPickerReceivesChoices(t *testing.T) {
	calls := 0
	picker := func(v int, ok []int, colorOf func(int) int) int {
		calls++
		if len(ok) == 0 {
			t.Fatal("picker called with no choices")
		}
		return ok[len(ok)-1] // highest color
	}
	f := ir.MustParse(loopSrc)
	factory := func(*ir.Func, func(int) int) ColorPicker { return picker }
	out, asn, err := Allocate(f, Options{K: 8, PickerFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("picker never called")
	}
	if err := regalloc.Verify(out, asn); err != nil {
		t.Fatalf("picker coloring invalid: %v", err)
	}
}

func TestDeterministic(t *testing.T) {
	f := ir.MustParse(loopSrc)
	_, a1, err := Allocate(f, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_, a2, err := Allocate(f, Options{K: 4})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a1.Color) != fmt.Sprint(a2.Color) {
			t.Fatalf("run %d differs: %v vs %v", i, a1.Color, a2.Color)
		}
	}
}

func TestErrorOnTinyK(t *testing.T) {
	f := ir.MustParse(loopSrc)
	if _, _, err := Allocate(f, Options{K: 1}); err == nil {
		t.Fatal("K=1 should be rejected")
	}
}

// randomFunc builds a random but valid straight-line-heavy function
// with a loop, exercising the allocator on varied shapes.
func randomFunc(rng *rand.Rand, nVals int) *ir.Func {
	b := ir.NewBuilder("rand")
	p := b.Param()
	vals := []ir.Reg{p}
	emit := func(n int) {
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				vals = append(vals, b.LI(int64(rng.Intn(100))))
			case 1:
				vals = append(vals, b.Bin(ir.OpAdd, vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]))
			case 2:
				vals = append(vals, b.Load(vals[rng.Intn(len(vals))], int64(rng.Intn(16))*4))
			case 3:
				vals = append(vals, b.Mov(vals[rng.Intn(len(vals))]))
			}
		}
	}
	emit(nVals)
	head := b.F.NewBlock("head")
	body := b.F.NewBlock("body")
	exit := b.F.NewBlock("exit")
	cond := vals[rng.Intn(len(vals))]
	bound := vals[rng.Intn(len(vals))]
	b.Jmp(head)
	b.SetBlock(head)
	b.BrCmp(ir.OpBLT, cond, bound, body, exit)
	b.SetBlock(body)
	emit(nVals / 2)
	b.Jmp(head)
	b.SetBlock(exit)
	b.Ret(vals[rng.Intn(len(vals))])
	return b.F
}

func TestRandomProgramsAllK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		f := randomFunc(rng, 10+rng.Intn(30))
		if err := f.Verify(); err != nil {
			t.Fatalf("trial %d: bad generator: %v", trial, err)
		}
		for _, k := range []int{4, 8, 12} {
			out, asn, err := Allocate(f, Options{K: k})
			if err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
			if err := regalloc.Verify(out, asn); err != nil {
				t.Fatalf("trial %d K=%d: %v\n%s", trial, k, err, out)
			}
		}
	}
}

func TestSpillRoundsTerminate(t *testing.T) {
	// Extremely tight K on a high-pressure function.
	rng := rand.New(rand.NewSource(3))
	f := randomFunc(rng, 60)
	out, asn, err := Allocate(f, Options{K: 3})
	if err != nil {
		t.Fatalf("K=3: %v", err)
	}
	if err := regalloc.Verify(out, asn); err != nil {
		t.Fatal(err)
	}
	info := liveness.Compute(out)
	if p := info.MaxPressure(); p > 3+1 {
		// Pressure may transiently equal K; it must not exceed it wildly.
		t.Logf("note: post-alloc pressure %d", p)
	}
}
