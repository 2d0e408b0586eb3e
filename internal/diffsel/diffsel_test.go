package diffsel

import (
	"fmt"
	"strings"
	"testing"

	"diffra/internal/adjacency"
	"diffra/internal/diffenc"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/regalloc"
)

const chainSrc = `
func chain(v0, v1) {
entry:
  v2 = add v0, v1
  v3 = add v2, v0
  v4 = add v3, v2
  v5 = add v4, v3
  v6 = add v5, v4
  ret v6
}
`

func encodeCost(t *testing.T, out *ir.Func, asn *regalloc.Assignment, regN, diffN int) int {
	t.Helper()
	regOf := func(r ir.Reg) int { return asn.Color[r] }
	cfg := diffenc.Config{RegN: regN, DiffN: diffN}
	res, err := diffenc.Encode(out, regOf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffenc.Check(out, regOf, cfg, res); err != nil {
		t.Fatal(err)
	}
	return res.Cost()
}

func TestDifferentialSelectReducesCost(t *testing.T) {
	f := ir.MustParse(chainSrc)
	const regN, diffN = 8, 2

	baseOut, baseAsn, err := irc.Allocate(f, irc.Options{K: regN})
	if err != nil {
		t.Fatal(err)
	}
	selOut, selAsn, err := irc.Allocate(f, irc.Options{
		K:             regN,
		PickerFactory: NewFactory(Params{RegN: regN, DiffN: diffN}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := regalloc.Verify(selOut, selAsn); err != nil {
		t.Fatalf("differential select broke the coloring: %v", err)
	}
	baseCost := encodeCost(t, baseOut, baseAsn, regN, diffN)
	selCost := encodeCost(t, selOut, selAsn, regN, diffN)
	if selCost > baseCost {
		t.Errorf("differential select cost %d > first-available cost %d", selCost, baseCost)
	}
	// Zero is unreachable here — the access sequence contains 3-cycles
	// whose per-edge differences cannot all be in {0,1} — but the
	// cost-minimizing select stage must stay within a small bound
	// (observed 4 with first-available baseline 4; the chain has 9
	// adjacency edges).
	if selCost > 4 {
		t.Errorf("differential select cost %d, want <= 4", selCost)
	}
}

func TestSelectZeroCostOnUnaryChain(t *testing.T) {
	// A unary chain has no adjacency cycles: v(i) -> v(i+1) edges only.
	// Differential select must find a zero-cost numbering.
	src := `
func u(v0) {
entry:
  v1 = neg v0
  v2 = neg v1
  v3 = neg v2
  v4 = neg v3
  v5 = neg v4
  ret v5
}
`
	f := ir.MustParse(src)
	out, asn, err := irc.Allocate(f, irc.Options{
		K:             4,
		PickerFactory: NewFactory(Params{RegN: 4, DiffN: 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := encodeCost(t, out, asn, 4, 2); c != 0 {
		t.Errorf("unary chain cost %d, want 0", c)
	}
}

func TestSelectNeverSpillsMoreThanBaseline(t *testing.T) {
	// Differential select only changes the choice among legal colors;
	// spill decisions are unaffected.
	f := ir.MustParse(chainSrc)
	for _, k := range []int{3, 4, 8} {
		_, baseAsn, err := irc.Allocate(f, irc.Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		_, selAsn, err := irc.Allocate(f, irc.Options{
			K:             k,
			PickerFactory: NewFactory(Params{RegN: k, DiffN: 2}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if selAsn.SpillInstrs != baseAsn.SpillInstrs {
			t.Errorf("K=%d: select spills %d != baseline %d", k, selAsn.SpillInstrs, baseAsn.SpillInstrs)
		}
	}
}

func TestPickCostCountsBothDirections(t *testing.T) {
	g := adjacency.FromEdges(3, []adjacency.Edge{
		{From: 0, To: 1, W: 2}, // node 1 follows node 0
		{From: 1, To: 2, W: 3}, // node 2 follows node 1
	})
	p := Params{RegN: 8, DiffN: 2}
	aliasOf := func(v int) int { return v }
	colorOf := func(v int) int {
		switch v {
		case 0:
			return 5
		case 2:
			return 4
		}
		return -1
	}
	// Candidate color 6 for node 1: edge 0->1 gives diff(5,6)=1 ok;
	// edge 1->2 gives diff(6,4)=6 violated -> cost 3.
	if c := PickCost(g, []int{1}, 1, 6, colorOf, aliasOf, p); c != 3 {
		t.Errorf("cost = %v, want 3", c)
	}
	// Candidate color 3: edge 0->1 diff(5,3)=6 violated (w=2); edge
	// 1->2 diff(3,4)=1 ok -> cost 2.
	if c := PickCost(g, []int{1}, 1, 3, colorOf, aliasOf, p); c != 2 {
		t.Errorf("cost = %v, want 2", c)
	}
	// Candidate color 5: 0->1 diff 0 ok; 1->2 diff(5,4)=7 violated.
	if c := PickCost(g, []int{1}, 1, 5, colorOf, aliasOf, p); c != 3 {
		t.Errorf("cost = %v, want 3", c)
	}
}

func TestPickCostMergedMembersAreFree(t *testing.T) {
	g := adjacency.FromEdges(4, []adjacency.Edge{
		{From: 0, To: 1, W: 5}, // both members of the same class
		{From: 1, To: 2, W: 1},
	})
	p := Params{RegN: 8, DiffN: 2}
	aliasOf := func(v int) int {
		if v == 1 {
			return 0
		}
		return v
	}
	colorOf := func(v int) int {
		if v == 2 {
			return 7
		}
		return -1
	}
	// Members {0,1} share the candidate color: edge 0->1 free; edge
	// 1->2 with candidate 3: diff(3,7)=4 violated -> cost 1.
	if c := PickCost(g, []int{0, 1}, 0, 3, colorOf, aliasOf, p); c != 1 {
		t.Errorf("cost = %v, want 1", c)
	}
	// Candidate 6: diff(6,7)=1 ok -> cost 0.
	if c := PickCost(g, []int{0, 1}, 0, 6, colorOf, aliasOf, p); c != 0 {
		t.Errorf("cost = %v, want 0", c)
	}
}

func TestFactoryHandlesSpillRounds(t *testing.T) {
	// Under heavy pressure the allocator rewrites and re-runs; the
	// factory must build a fresh picker for the rewritten function
	// without index panics.
	src := `
func p(v0, v1, v2, v3, v4, v5) {
entry:
  v6 = add v0, v1
  v7 = add v2, v3
  v8 = add v4, v5
  v9 = add v6, v7
  v9 = add v9, v8
  v9 = add v9, v0
  v9 = add v9, v1
  v9 = add v9, v2
  v9 = add v9, v3
  v9 = add v9, v4
  v9 = add v9, v5
  ret v9
}
`
	f := ir.MustParse(src)
	out, asn, err := irc.Allocate(f, irc.Options{
		K:             3,
		PickerFactory: NewFactory(Params{RegN: 3, DiffN: 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := regalloc.Verify(out, asn); err != nil {
		t.Fatal(err)
	}
	if asn.SpillInstrs == 0 {
		t.Error("expected spills at K=3")
	}
}

// TestPickerListsClassesOncePerRound drives one round's picker over
// every class of a long chain whose odd vregs are coalesced into their
// even neighbour, counting aliasOf calls. Listing the classes may ask
// aliasOf once per vreg for the whole round; every other call is
// PickCost's, one per incident edge and candidate color, counted here
// by scoring the same members, found by scanning every vreg, the same
// way. The picker must also choose what that scoring chooses.
func TestPickerListsClassesOncePerRound(t *testing.T) {
	const n = 2000
	var src strings.Builder
	src.WriteString("func chain(v0) {\nentry:\n  v1 = neg v0\n")
	for v := 2; v < n; v++ {
		fmt.Fprintf(&src, "  v%d = add v%d, v%d\n", v, v-1, v-2)
	}
	fmt.Fprintf(&src, "  ret v%d\n}\n", n-1)
	f := ir.MustParse(src.String())
	p := Params{RegN: 8, DiffN: 2}
	g := adjacency.BuildVReg(f)

	calls, refCalls := 0, 0
	aliasOf := func(u int) int { calls++; return u &^ 1 }
	refAlias := func(u int) int { refCalls++; return u &^ 1 }
	colorOf := func(u int) int {
		if u%4 < 2 {
			return u % 7
		}
		return -1
	}
	ok := []int{0, 1, 2, 3, 4, 5, 6, 7}
	pick := NewFactory(p)(f, aliasOf)
	for v := 0; v < n; v += 2 {
		got := pick(v, ok, colorOf)
		var members []int
		for u := 0; u < n; u++ {
			if u&^1 == v {
				members = append(members, u)
			}
		}
		want, best := ok[0], 0.0
		for i, c := range ok {
			if cost := PickCost(g, members, v, c, colorOf, refAlias, p); i == 0 || cost < best {
				want, best = c, cost
			}
		}
		if got != want {
			t.Fatalf("v%d: picked color %d, scoring the class chooses %d", v, got, want)
		}
	}
	if own := calls - refCalls; own > n {
		t.Errorf("picker made %d aliasOf calls of its own over %d picks of %d vregs, want at most %d", own, n/2, n, n)
	}
}
