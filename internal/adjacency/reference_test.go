package adjacency_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"diffra/internal/adjacency"
	"diffra/internal/difftest"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/workloads"
)

// refBuild is the reference adjacency builder: it walks f's access
// sequence — within each block, then from each predecessor's last
// access into each block's first — and sums every (from, to) pair's
// weight in that walk order, skipping accesses node maps to -1.
func refBuild(f *ir.Func, node func(ir.Reg) int, freq map[*ir.Block]float64) refGraph {
	if freq == nil {
		freq = map[*ir.Block]float64{}
		for i, w := range f.BlockFreqs() {
			freq[f.Blocks[i]] = w
		}
	}
	ref := refGraph{}
	first := map[*ir.Block]int{}
	last := map[*ir.Block]int{}
	for _, b := range f.Blocks {
		prev := -1
		for _, in := range b.Instrs {
			for _, r := range in.RegFields() {
				nd := node(r)
				if nd < 0 {
					continue
				}
				if prev < 0 {
					first[b] = nd
				} else {
					ref.add(prev, nd, freq[b])
				}
				prev = nd
			}
		}
		if prev >= 0 {
			last[b] = prev
		}
	}
	for _, b := range f.Blocks {
		fn, ok := first[b]
		if !ok || len(b.Preds) == 0 {
			continue
		}
		for _, p := range b.Preds {
			if ln, ok := last[p]; ok {
				ref.add(ln, fn, freq[b]/float64(len(b.Preds)))
			}
		}
	}
	return ref
}

// assertBuildersMatchRef compares all four builders on f against the
// reference: the live-range graph and, after an IRC allocation at
// RegN 12, the register graph, each with static and with profile
// frequencies. The profile weighs blocks 0, 1/3 and 2/3 in turn, so
// zero weights and inexact sums occur.
func assertBuildersMatchRef(t *testing.T, name string, f *ir.Func) {
	t.Helper()
	profile := map[*ir.Block]float64{}
	for _, b := range f.Blocks {
		profile[b] = float64(b.Index%3) / 3
	}
	vreg := func(r ir.Reg) int { return int(r) }
	n := f.NumRegs()
	assertMatchesRef(t, name+"/vreg", adjacency.BuildVReg(f), n, refBuild(f, vreg, nil))
	assertMatchesRef(t, name+"/vreg-profile", adjacency.BuildVRegProfile(f, profile), n, refBuild(f, vreg, profile))

	const regN = 12
	out, asn, err := irc.Allocate(f, irc.Options{K: regN})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	outProfile := map[*ir.Block]float64{}
	for _, b := range out.Blocks {
		outProfile[b] = float64(b.Index%3) / 3
	}
	regOf := func(r ir.Reg) int { return asn.RegOf(r) }
	assertMatchesRef(t, name+"/reg", adjacency.BuildReg(out, regOf, regN), regN, refBuild(out, regOf, nil))
	assertMatchesRef(t, name+"/reg-profile", adjacency.BuildRegProfile(out, regOf, regN, outProfile), regN, refBuild(out, regOf, outProfile))
}

// TestBuildersMatchReference: every row and incidence weight of the
// built graphs equals the reference bit for bit, on the ten kernels, on
// join3 (whose three-way join weighs 10/3, so a different summation
// order would show) and on generated CFGs.
func TestBuildersMatchReference(t *testing.T) {
	for _, k := range workloads.Kernels() {
		assertBuildersMatchRef(t, k.Name, k.F)
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "join3.ir"))
	if err != nil {
		t.Fatal(err)
	}
	assertBuildersMatchRef(t, "join3", ir.MustParse(string(src)))
	for seed := int64(0); seed < 40; seed++ {
		f, _, _ := difftest.Generate(seed)
		assertBuildersMatchRef(t, fmt.Sprintf("gen%d", seed), f)
	}
}
