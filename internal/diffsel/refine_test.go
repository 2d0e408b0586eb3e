package diffsel

import (
	"fmt"
	"strings"
	"testing"

	"diffra/internal/adjacency"
	"diffra/internal/ir"
	"diffra/internal/regalloc"
)

// refineSrc is a straight-line chain whose adjacency edges are pure
// forward links, so a numbering exists with zero violations.
const refineSrc = `
func r(v0) {
entry:
  v1 = neg v0
  v2 = neg v1
  v3 = neg v2
  v4 = neg v3
  ret v4
}
`

func modelCost(f *ir.Func, asn *regalloc.Assignment, p Params) float64 {
	g := adjacency.BuildVReg(f)
	return g.Cost(func(n int) int {
		if n < len(asn.Color) {
			return asn.Color[n]
		}
		return -1
	}, p.RegN, p.DiffN)
}

func TestRefineImprovesBadColoring(t *testing.T) {
	f := ir.MustParse(refineSrc)
	p := Params{RegN: 8, DiffN: 2}
	// Adversarial coloring: each step goes backward by 1 (difference 7,
	// violated at DiffN=2). The chain does not interfere (each value
	// dies at its single use), so any coloring is legal.
	asn := &regalloc.Assignment{K: 8, Color: []int{4, 3, 2, 1, 0}}
	before := modelCost(f, asn, p)
	if before == 0 {
		t.Fatal("test premise: adversarial coloring should pay")
	}
	moves := Refine(f, asn, p)
	if moves == 0 {
		t.Fatal("refine made no moves on an improvable coloring")
	}
	after := modelCost(f, asn, p)
	if after >= before {
		t.Fatalf("refine did not reduce cost: %v -> %v", before, after)
	}
	// Single-range moves cannot always coordinate a full untangling
	// (that is what the register-level remap pass is composed with),
	// but on this chain the local search must get within one violation
	// of the zero-cost optimum.
	if after > 1 {
		t.Errorf("refined cost %v, want <= 1", after)
	}
	if err := regalloc.Verify(f, asn); err != nil {
		t.Fatalf("refine broke the coloring: %v", err)
	}
}

func TestRefineRespectsInterference(t *testing.T) {
	// v0 and v1 are co-live: refine must never give them one register,
	// no matter the adjacency gain.
	f := ir.MustParse(`
func r(v0, v1) {
entry:
  v2 = add v0, v1
  v3 = add v2, v0
  v4 = add v3, v1
  ret v4
}
`)
	p := Params{RegN: 8, DiffN: 2}
	asn := &regalloc.Assignment{K: 8, Color: []int{0, 5, 1, 2, 3}}
	Refine(f, asn, p)
	if err := regalloc.Verify(f, asn); err != nil {
		t.Fatalf("refine violated interference: %v", err)
	}
}

func TestRefineIdempotentAtFixpoint(t *testing.T) {
	f := ir.MustParse(refineSrc)
	p := Params{RegN: 8, DiffN: 2}
	asn := &regalloc.Assignment{K: 8, Color: []int{4, 3, 2, 1, 0}}
	Refine(f, asn, p)
	if again := Refine(f, asn, p); again != 0 {
		t.Errorf("second refine still moved %d ranges", again)
	}
}

func TestRefineSkipsUnusedColors(t *testing.T) {
	// Colors of -1 (vregs absent from the final code) must be ignored.
	f := ir.MustParse(refineSrc)
	p := Params{RegN: 8, DiffN: 2}
	asn := &regalloc.Assignment{K: 8, Color: []int{4, 3, 2, 1, 0}}
	asn.Color = append(asn.Color, -1) // phantom entry
	f.EnsureRegs(6)
	Refine(f, asn, p)
	if asn.Color[5] != -1 {
		t.Error("refine touched an unallocated vreg")
	}
}

// TestRefineCancelStopsEarly: a Cancel that fires on its Nth poll stops
// Refine at that poll, short of the moves a full run makes, and the
// coloring it leaves still passes regalloc.Verify. The chain has 1001
// vregs, so each round polls at its start and at vregs 256, 512 and
// 768.
func TestRefineCancelStopsEarly(t *testing.T) {
	const n = 1000
	var src strings.Builder
	src.WriteString("func chain(v0) {\nentry:\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&src, "  v%d = neg v%d\n", i, i-1)
	}
	fmt.Fprintf(&src, "  ret v%d\n}\n", n)
	f := ir.MustParse(src.String())
	// Each step goes backward by 1, violated at DiffN=2 (see
	// TestRefineImprovesBadColoring).
	adversarial := func() *regalloc.Assignment {
		color := make([]int, f.NumRegs())
		for v := range color {
			color[v] = (n - v) % 8
		}
		return &regalloc.Assignment{K: 8, Color: color}
	}
	polls := 0
	p := Params{RegN: 8, DiffN: 2, Cancel: func() bool { polls++; return false }}
	full := Refine(f, adversarial(), p)
	if full == 0 || polls < 5 {
		t.Fatalf("test premise: full refine made %d moves over %d polls", full, polls)
	}
	for _, stop := range []int{1, 2, 4} {
		polls = 0
		p.Cancel = func() bool { polls++; return polls >= stop }
		asn := adversarial()
		moves := Refine(f, asn, p)
		if polls != stop {
			t.Errorf("stop at poll %d: polled %d times", stop, polls)
		}
		if moves >= full || (stop == 1) != (moves == 0) {
			t.Errorf("stop at poll %d: %d moves, full run %d", stop, moves, full)
		}
		if err := regalloc.Verify(f, asn); err != nil {
			t.Fatalf("stop at poll %d: coloring fails Verify: %v", stop, err)
		}
	}
}
