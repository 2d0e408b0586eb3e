package diffra_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"testing"

	"diffra/internal/diffcoal"
	"diffra/internal/difftest"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/ospill"
	"diffra/internal/regalloc"
	"diffra/internal/scratch"
	"diffra/internal/ssaalloc"
	"diffra/internal/workloads"
)

// withDeadBlock returns a clone of f with one unreachable block
// appended: a fresh register loaded and returned. Liveness never
// reaches it, so the SSA scan routes every such function through its
// interference-graph fallback.
func withDeadBlock(f *ir.Func) *ir.Func {
	g := f.Clone()
	r := g.NewReg()
	b := g.NewBlock("dead")
	b.Instrs = []*ir.Instr{
		{Op: ir.OpLI, Defs: []ir.Reg{r}},
		{Op: ir.OpRet, Uses: []ir.Reg{r}},
	}
	return g
}

// hashAllocation writes one allocator run to h: the error text, or the
// printed function, Color, the spill and coalesce counts and the
// stack parameters in ascending order.
func hashAllocation(t *testing.T, h hash.Hash, label string, out *ir.Func, asn *regalloc.Assignment, err error) {
	t.Helper()
	fmt.Fprintln(h, label)
	if err != nil {
		fmt.Fprintln(h, "error", err)
		return
	}
	if err := regalloc.Verify(out, asn); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	params := make([]ir.Reg, 0, len(asn.StackParams))
	for p := range asn.StackParams {
		params = append(params, p)
	}
	sort.Slice(params, func(i, j int) bool { return params[i] < params[j] })
	fmt.Fprint(h, out.String())
	fmt.Fprintln(h, asn.Color, asn.SpilledVRegs, asn.SpillInstrs, asn.CoalescedMoves)
	for _, p := range params {
		fmt.Fprintln(h, p, asn.StackParams[p])
	}
}

func hashSpillStats(h hash.Hash, st *ospill.Stats) {
	if st == nil {
		fmt.Fprintln(h, "no stats")
		return
	}
	fmt.Fprintln(h, st.ILPOptimal, st.ILPSpilled, st.ResidualSpilled, st.LoopSpilled, st.Constraints, st.ILPNodes)
}

// TestSpillPathGolden pins the output of every allocator that inserts
// spill code — the SSA scan, iterated register coalescing, optimal
// spilling with and without loop spills, and differential coalesce —
// on the §8 kernels at K {3, 4, 6, 8, 12} and on difftest.Generate
// seeds 0–199 at K {2, 3, 4, 6, 8}. The SSA scan also runs each input
// with one unreachable block appended, which takes its
// interference-graph fallback. Per run the hash takes the error text or
// the printed function, Color, SpilledVRegs, SpillInstrs,
// CoalescedMoves, the sorted StackParams and the spill fields of
// ospill.Stats and diffcoal.Stats. The value was recorded before the
// allocators' spill code moved into regalloc, and re-pinned when
// diffcoal's fallback rounds were bounded by the input's vreg count
// instead of 16: five generated cases that gave up then allocate now
// (diffcoal's TestFallbackRoundsFollowTheInput), and no other case
// moved.
func TestSpillPathGolden(t *testing.T) {
	h := fnv.New64a()
	ar := new(scratch.Arena)
	run := func(name string, f *ir.Func, k int) {
		label := fmt.Sprintf("%s/K%d", name, k)
		out, asn, err := ssaalloc.Allocate(f, ssaalloc.Options{K: k, Scratch: ar})
		hashAllocation(t, h, label+"/ssa", out, asn, err)
		out, asn, err = ssaalloc.Allocate(withDeadBlock(f), ssaalloc.Options{K: k, Scratch: ar})
		hashAllocation(t, h, label+"/ssa-dead", out, asn, err)

		out, asn, err = irc.Allocate(f, irc.Options{K: k, Scratch: ar})
		hashAllocation(t, h, label+"/irc", out, asn, err)

		for _, whole := range []bool{false, true} {
			out, asn, st, err := ospill.Allocate(f, ospill.Options{K: k, DisableLoopSpills: whole})
			hashAllocation(t, h, fmt.Sprintf("%s/ospill-whole=%v", label, whole), out, asn, err)
			hashSpillStats(h, st)
		}

		out, asn, dst, err := diffcoal.Allocate(f, diffcoal.Options{RegN: k, DiffN: (k + 1) / 2})
		hashAllocation(t, h, label+"/diffcoal", out, asn, err)
		if dst != nil {
			hashSpillStats(h, &dst.Spill)
			fmt.Fprintln(h, dst.FallbackSpills, dst.Coalesced, dst.Attempts)
		}
	}
	for _, k := range workloads.Kernels() {
		for _, regN := range []int{3, 4, 6, 8, 12} {
			run(k.Name, k.F, regN)
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		f, _, _ := difftest.Generate(seed)
		for _, regN := range []int{2, 3, 4, 6, 8} {
			run(fmt.Sprintf("gen%d", seed), f, regN)
		}
	}
	if got, want := h.Sum64(), uint64(0x212a9706458bb476); got != want {
		t.Errorf("spill path hash %#x, golden %#x", got, want)
	}
}
