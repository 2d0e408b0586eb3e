package ospill_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"diffra/internal/difftest"
	"diffra/internal/ilp"
	"diffra/internal/ir"
	"diffra/internal/ospill"
	"diffra/internal/workloads"
)

// TestSpillDecisionGolden pins the exact spilling front end end to end
// on the ten §8 kernels and difftest.Generate seeds 0–199, each at
// K {2, 3, 4, 5, 6, 8, 12}: both covering builders' output (costs,
// constraints in order, exclusivity groups, and every loop candidate's
// range, header and cost), ilp.Solve's complete Solution on each of the
// two problems, and each function's CFG analyses (immediate dominators,
// natural loops, loop depths and block frequencies). The analyses are
// printed by block name, so the hash holds across changes of their
// data representation. The hash was recorded from the map-based
// builders, ILP front end and CFG analyses.
func TestSpillDecisionGolden(t *testing.T) {
	h := fnv.New64a()
	check := func(name string, f *ir.Func) {
		hashCFG(h, name, f)
		for _, k := range []int{2, 3, 4, 5, 6, 8, 12} {
			fmt.Fprintln(h, name, "K", k)
			p := ospill.SpillProblem(f, k)
			hashProblem(h, p)
			hashSolution(h, ilp.Solve(p, ilp.Options{}))
			ep, cands := ospill.ExtendedSpillProblem(f, k)
			hashProblem(h, ep)
			for _, c := range cands {
				fmt.Fprintln(h, "cand", c.V, c.Loop.Header.Name, math.Float64bits(c.Cost))
			}
			hashSolution(h, ilp.Solve(ep, ilp.Options{}))
		}
	}
	for _, k := range workloads.Kernels() {
		check(k.Name, k.F)
	}
	for seed := int64(0); seed < 200; seed++ {
		f, _, _ := difftest.Generate(seed)
		check(fmt.Sprintf("gen%d", seed), f)
	}
	if got, want := h.Sum64(), uint64(0x7c7817e721ea8e30); got != want {
		t.Errorf("spill decision hash %#x, golden %#x", got, want)
	}
}

func hashProblem(h hash.Hash64, p ilp.Problem) {
	fmt.Fprint(h, "costs")
	for _, c := range p.Costs {
		fmt.Fprint(h, " ", math.Float64bits(c))
	}
	fmt.Fprintln(h)
	for _, c := range p.Constraints {
		fmt.Fprintln(h, "con", c.Need, c.Vars)
	}
	for _, g := range p.Exclusive {
		fmt.Fprintln(h, "excl", g)
	}
}

func hashSolution(h hash.Hash64, s ilp.Solution) {
	fmt.Fprintln(h, "sol", s.X, math.Float64bits(s.Cost), s.Optimal, s.Cancelled,
		s.Nodes, s.Pruned, s.Components, s.Reductions)
}

// hashCFG prints f's CFG analyses by block name, in f.Blocks order.
func hashCFG(h hash.Hash64, name string, f *ir.Func) {
	fmt.Fprintln(h, name, "cfg")
	idom := f.Dominators()
	for _, b := range f.Blocks {
		d := "-"
		if p := idom[b.Index]; p != nil {
			d = p.Name
		}
		fmt.Fprintln(h, "idom", b.Name, d)
	}
	for _, l := range f.NaturalLoops() {
		fmt.Fprint(h, "loop ", l.Header.Name)
		in := make([]bool, len(f.Blocks))
		for _, b := range l.Blocks {
			in[b] = true
		}
		for _, b := range f.Blocks {
			if in[b.Index] {
				fmt.Fprint(h, " ", b.Name)
			}
		}
		fmt.Fprintln(h)
	}
	depth := f.LoopDepths()
	freq := f.BlockFreqs()
	for _, b := range f.Blocks {
		fmt.Fprintln(h, "depth", b.Name, depth[b.Index], math.Float64bits(freq[b.Index]))
	}
}
