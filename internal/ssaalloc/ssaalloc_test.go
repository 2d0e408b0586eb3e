package ssaalloc

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"diffra/internal/diffsel"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/liveness"
	"diffra/internal/regalloc"
	"diffra/internal/scratch"
	"diffra/internal/workloads"
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

func allocOK(t *testing.T, f *ir.Func, opts Options) (*ir.Func, *regalloc.Assignment) {
	t.Helper()
	out, asn, err := Allocate(f, opts)
	if err != nil {
		t.Fatalf("Allocate K=%d: %v", opts.K, err)
	}
	if err := out.Verify(); err != nil {
		t.Fatalf("output IR invalid: %v", err)
	}
	if err := regalloc.Verify(out, asn); err != nil {
		t.Fatalf("allocation invalid: %v", err)
	}
	return out, asn
}

func TestScanNoSpillWhenEnoughRegs(t *testing.T) {
	_, asn := allocOK(t, ir.MustParse(loopSrc), Options{K: 8})
	if asn.SpilledVRegs != 0 || asn.SpillInstrs != 0 {
		t.Errorf("unexpected spills: %+v", asn)
	}
}

func TestScanExactPressure(t *testing.T) {
	// MaxPressure of loopSrc is 5; the chordal scan must color K=5
	// without spilling — pressure-bounded means colorable here.
	_, asn := allocOK(t, ir.MustParse(loopSrc), Options{K: 5})
	if asn.SpilledVRegs != 0 {
		t.Errorf("spilled %d with K=5", asn.SpilledVRegs)
	}
}

func TestScanSpillsUnderPressure(t *testing.T) {
	out, asn := allocOK(t, ir.MustParse(loopSrc), Options{K: 3})
	if asn.SpilledVRegs == 0 || asn.SpillInstrs == 0 {
		t.Fatalf("expected spills at K=3: %+v", asn)
	}
	spills, _ := regalloc.SpillStats(out)
	if spills != asn.SpillInstrs {
		t.Errorf("SpillStats %d != asn.SpillInstrs %d", spills, asn.SpillInstrs)
	}
}

// TestKernelsGrid checks validity on every Mibench kernel across the
// register-count grid, with and without a warm shared arena.
func TestKernelsGrid(t *testing.T) {
	ar := new(scratch.Arena)
	for _, k := range workloads.Kernels() {
		for _, regN := range []int{4, 8, 12, 16, 32} {
			_, cold := allocOK(t, k.F, Options{K: regN})
			_, warm := allocOK(t, k.F, Options{K: regN, Scratch: ar})
			if len(cold.Color) != len(warm.Color) {
				t.Fatalf("%s/K%d: arena changed vreg count", k.Name, regN)
			}
			for v := range cold.Color {
				if cold.Color[v] != warm.Color[v] {
					t.Fatalf("%s/K%d: arena changed coloring of v%d: %d vs %d",
						k.Name, regN, v, cold.Color[v], warm.Color[v])
				}
			}
		}
	}
}

// TestWideKernelsNeverSpill: every kernel's pressure is far below 32
// registers, so the fast path must color without touching memory.
func TestWideKernelsNeverSpill(t *testing.T) {
	for _, k := range workloads.Kernels() {
		if p := liveness.Compute(k.F).MaxPressure(); p >= 32 {
			t.Fatalf("%s: unexpected pressure %d", k.Name, p)
		}
		_, asn := allocOK(t, k.F, Options{K: 32})
		if asn.SpillInstrs != 0 {
			t.Errorf("%s: %d spill instrs at K=32", k.Name, asn.SpillInstrs)
		}
	}
}

// TestDiffTiebreak: the §6 cost hook must preserve validity and
// determinism at every geometry.
func TestDiffTiebreak(t *testing.T) {
	for _, k := range workloads.Kernels() {
		for _, g := range []struct{ regN, diffN int }{{8, 4}, {12, 8}, {16, 3}} {
			opts := Options{K: g.regN, Diff: diffsel.Params{RegN: g.regN, DiffN: g.diffN}}
			_, a := allocOK(t, k.F, opts)
			_, b := allocOK(t, k.F, opts)
			for v := range a.Color {
				if a.Color[v] != b.Color[v] {
					t.Fatalf("%s/R%d/D%d: nondeterministic color for v%d", k.Name, g.regN, g.diffN, v)
				}
			}
		}
	}
}

// TestUnreachableCode: liveness never reaches blocks outside the RPO,
// so the scan must route such functions through the matrix fallback
// and still satisfy the verifier, which derives interference inside
// unreachable code from the same backward walk.
func TestUnreachableCode(t *testing.T) {
	src := `
func f(v0) {
entry:
  v1 = add v0, v0
  ret v1
dead:
  v2 = add v3, v3
  v4 = add v2, v3
  ret v4
}
`
	allocOK(t, ir.MustParse(src), Options{K: 4})
}

// TestDeadParam: a parameter overwritten before any read interferes
// with nothing, but the verifier still wants it colored.
func TestDeadParam(t *testing.T) {
	src := `
func f(v0, v1) {
entry:
  v1 = li 7
  v2 = add v0, v1
  ret v2
}
`
	allocOK(t, ir.MustParse(src), Options{K: 2})
}

// TestRevivedRange: v2's live range restarts after a gap — on one
// path it dies and its color can be reused before the other def
// revives it. The scan must either keep the invariant or detect the
// hazard and fall back; the result must verify either way.
func TestRevivedRange(t *testing.T) {
	src := `
func f(v0) {
entry:
  v1 = li 1
  v2 = add v0, v1
  v3 = add v2, v1
  blt v0, v3 -> left, right
left:
  v4 = li 2
  v5 = add v4, v3
  v2 = add v5, v4
  jmp join
right:
  v2 = li 9
  jmp join
join:
  v6 = add v2, v2
  ret v6
}
`
	allocOK(t, ir.MustParse(src), Options{K: 3})
}

func TestMinRegisters(t *testing.T) {
	if _, _, err := Allocate(ir.MustParse(loopSrc), Options{K: 1}); err == nil {
		t.Fatal("K=1 must be rejected")
	}
}

// BenchmarkSSAAllocate measures the scan on the largest kernel at K=8,
// where it spills. One call before the timer grows the arena to its
// steady state, so a 1x run reports what a warm worker pays.
func BenchmarkSSAAllocate(b *testing.B) {
	k := workloads.KernelByName("susan")
	ar := new(scratch.Arena)
	if _, _, err := Allocate(k.F, Options{K: 8, Scratch: ar}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Allocate(k.F, Options{K: 8, Scratch: ar}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSSAFewerOrEqualSpills pins the claim the package comment makes:
// the scan spills only at program points whose register demand exceeds
// K — points where *any* allocator must spill — so across the kernel
// grid it never sends more distinct live ranges to memory than
// iterated register coalescing does.
func TestSSAFewerOrEqualSpills(t *testing.T) {
	for _, k := range workloads.Kernels() {
		for _, regs := range []int{4, 6, 8, 12} {
			_, ssaAsn, err := Allocate(k.F, Options{K: regs})
			if err != nil {
				t.Fatalf("%s K=%d: ssa: %v", k.Name, regs, err)
			}
			_, ircAsn, err := irc.Allocate(k.F, irc.Options{K: regs})
			if err != nil {
				t.Fatalf("%s K=%d: irc: %v", k.Name, regs, err)
			}
			if ssaAsn.SpilledVRegs > ircAsn.SpilledVRegs {
				t.Errorf("%s K=%d: ssa spilled %d ranges, irc %d — scan spilled where IRC avoided it",
					k.Name, regs, ssaAsn.SpilledVRegs, ircAsn.SpilledVRegs)
			}
		}
	}
}

// wideIR is a straight-line chain of blocks, each redefining width
// values from the previous block's, then a reduction: about
// blocks×width vregs with width live at every block boundary.
func wideIR(blocks, width int) *ir.Func {
	var b strings.Builder
	fmt.Fprintf(&b, "func wide(v0) {\nentry:\n")
	next := 1
	prev := make([]int, width)
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "  v%d = li %d\n", next, i+1)
		prev[i] = next
		next++
	}
	fmt.Fprintf(&b, "  jmp b0\n")
	for bl := 0; bl < blocks; bl++ {
		fmt.Fprintf(&b, "b%d:\n", bl)
		cur := make([]int, width)
		for i := 0; i < width; i++ {
			fmt.Fprintf(&b, "  v%d = add v%d, v%d\n", next, prev[i], prev[(i+1)%width])
			cur[i] = next
			next++
		}
		if bl == blocks-1 {
			fmt.Fprintf(&b, "  jmp done\n")
		} else {
			fmt.Fprintf(&b, "  jmp b%d\n", bl+1)
		}
		prev = cur
	}
	fmt.Fprintf(&b, "done:\n")
	acc := prev[0]
	for i := 1; i < width; i++ {
		fmt.Fprintf(&b, "  v%d = add v%d, v%d\n", next, acc, prev[i])
		acc = next
		next++
	}
	fmt.Fprintf(&b, "  ret v%d\ndead:\n  v%d = li 0\n  ret v%d\n}\n", acc, next, next)
	return ir.MustParse(b.String())
}

// TestWideFallbackStaysLinear: one unreachable block sends a function
// through the interference-graph fallback. On 20,081 vregs a V×V bit
// matrix alone is 50 MB; the fallback must read the graph's neighbor
// rows instead and stay within a few bytes per interference.
func TestWideFallbackStaysLinear(t *testing.T) {
	f := wideIR(500, 40)
	if n := f.NumRegs(); n != 20081 {
		t.Fatalf("%d vregs, want 20081", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	out, asn, err := Allocate(f, Options{K: 64})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := regalloc.Verify(out, asn); err != nil {
		t.Fatal(err)
	}
	if asn.SpilledVRegs != 0 {
		t.Errorf("spilled %d vregs at K=64 with 40 live", asn.SpilledVRegs)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %.1f MB in %v", float64(got)/(1<<20), elapsed)
	if limit := uint64(32 << 20); got > limit {
		t.Errorf("fallback allocated %.1f MB on %d vregs, want at most %d MB", float64(got)/(1<<20), f.NumRegs(), limit>>20)
	}
}

// TestGraphVictimTieBreak: when a spill temporary has no free color in
// the graph fallback, the cheapest spillable neighbor goes, and of
// equally cheap ones the lowest-numbered, whatever order Build's row
// lists them in.
func TestGraphVictimTieBreak(t *testing.T) {
	f := ir.MustParse(`
func f(v0) {
entry:
  v1 = li 1
  v2 = li 2
  v3 = add v1, v2
  v4 = add v3, v0
  ret v4
}
`)
	// Take v3 on as a spill temporary; v1 and v2 each occur twice.
	s := newScanState(f, Options{K: 2}, new(scratch.Arena), 3)
	for _, c := range []struct {
		v    int
		nbrs []int
		want int
	}{
		{3, []int{2, 1}, 1}, // a tie goes to the lower number
		{3, []int{1, 2}, 1},
		{3, []int{4, 2}, 2}, // temporaries are never picked
		{3, []int{4}, 3},    // nothing spillable: v itself
		{2, []int{1}, 2},    // a spillable v goes itself
	} {
		if got := s.graphVictim(c.v, c.nbrs); got != c.want {
			t.Errorf("graphVictim(v%d, %v) = v%d, want v%d", c.v, c.nbrs, got, c.want)
		}
	}
}
