package ospill

import (
	"testing"

	"diffra/internal/ir"
	"diffra/internal/liveness"
	"diffra/internal/pipeline"
	"diffra/internal/regalloc"
)

// liveThroughSrc: a two-level nest where pressure exceeds the register
// file only inside the inner loop. The outer-loop state (v0 bound, v2
// counter, v3 accumulator) is live through the inner loop but never
// referenced there, and each is hot in the outer body — so spilling
// any of them everywhere costs several loads per outer iteration,
// while a loop spill costs one store on inner-loop entry plus one
// reload on exit. The ideal Appel-George placement scenario.
const liveThroughSrc = `
func lt(v0, v1) {
entry:
  v2 = li 0
  v3 = li 7
  jmp outer
outer:
  blt v2, v0 -> obody, done
obody:
  v3 = add v3, v2
  v3 = add v3, v0
  v3 = add v3, v0
  v3 = add v3, v2
  v4 = li 0
  v5 = li 1
  jmp inner
inner:
  blt v4, v1 -> ibody, iexit
ibody:
  v6 = add v5, v4
  v5 = add v5, v6
  v6 = add v6, v5
  v5 = add v5, v6
  v7 = li 1
  v4 = add v4, v7
  jmp inner
iexit:
  v3 = add v3, v5
  v8 = li 1
  v2 = add v2, v8
  jmp outer
done:
  ret v3
}
`

const ltK = 6

func TestLoopSpillCandidates(t *testing.T) {
	f := ir.MustParse(liveThroughSrc)
	info := liveness.Compute(f)
	cands := loopSpillCandidates(f, info, f.BlockFreqs())
	found := map[ir.Reg]bool{}
	costs := liveness.SpillCostsWeighted(f, f.BlockFreqs(), nil)
	inner := f.BlockByName("inner")
	for _, c := range cands {
		if c.Loop.Header != inner {
			continue
		}
		found[c.V] = true
		switch c.V {
		case 0, 2, 3:
			if len(c.entries) != 1 || len(c.exits) != 1 {
				t.Errorf("v%d: entries %d exits %d, want 1/1", c.V, len(c.entries), len(c.exits))
			}
			// Loop spill is cheaper than the range's weighted cost.
			if c.Cost >= costs[c.V] {
				t.Errorf("v%d: loop cost %v not below full cost %v", c.V, c.Cost, costs[c.V])
			}
		case 4, 5, 6, 7:
			t.Errorf("v%d occurs in the inner loop yet is a candidate", c.V)
		}
	}
	for _, v := range []ir.Reg{0, 2, 3} {
		if !found[v] {
			t.Errorf("v%d should be an inner-loop candidate", v)
		}
	}
}

func TestExtendedProblemPrefersLoopSpills(t *testing.T) {
	f := ir.MustParse(liveThroughSrc)
	spills, chosen, st := Decide(f, Options{K: ltK})
	if !st.ILPOptimal {
		t.Fatal("expected optimal solve")
	}
	if st.LoopSpilled == 0 {
		t.Fatalf("no loop spills chosen; full spills %v", spills)
	}
	for _, c := range chosen {
		if c.V != 0 && c.V != 2 && c.V != 3 {
			t.Errorf("unexpected loop spill of v%d", c.V)
		}
	}
	if len(spills) != 0 {
		t.Errorf("whole-range spills %v chosen despite cheaper loop spills", spills)
	}
}

func TestLoopSpillEndToEnd(t *testing.T) {
	f := ir.MustParse(liveThroughSrc)
	out, asn, st, err := Allocate(f, Options{K: ltK})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := regalloc.Verify(out, asn); err != nil {
		t.Fatal(err)
	}
	if st.LoopSpilled == 0 {
		t.Fatal("no loop spills applied")
	}
	// No spill code may appear inside the inner loop.
	for _, name := range []string{"inner", "ibody"} {
		for _, in := range out.BlockByName(name).Instrs {
			if in.Op == ir.OpSpillLoad || in.Op == ir.OpSpillStore {
				t.Errorf("spill code inside inner loop (%s): %s", name, in)
			}
		}
	}

	// Execution through machine registers must match the reference.
	m, err := pipeline.New(pipeline.LowEnd())
	if err != nil {
		t.Fatal(err)
	}
	args := []int64{6, 5}
	want, _, err := m.Run(f, nil, pipeline.RunOptions{Args: args})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := m.Run(out, asn, pipeline.RunOptions{Args: args, OrigParams: f.Params})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("allocated %d != reference %d", got, want)
	}
	if stats.SpillOps == 0 {
		t.Error("loop spill code never executed")
	}
}

func TestLoopSpillCheaperThanDisabled(t *testing.T) {
	f := ir.MustParse(liveThroughSrc)
	m, err := pipeline.New(pipeline.LowEnd())
	if err != nil {
		t.Fatal(err)
	}
	args := []int64{20, 30}

	run := func(disable bool) uint64 {
		out, asn, _, err := Allocate(f, Options{K: ltK, DisableLoopSpills: disable})
		if err != nil {
			t.Fatal(err)
		}
		if err := regalloc.Verify(out, asn); err != nil {
			t.Fatal(err)
		}
		got, st, err := m.Run(out, asn, pipeline.RunOptions{Args: args, OrigParams: f.Params})
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := m.Run(f, nil, pipeline.RunOptions{Args: args})
		if got != want {
			t.Fatalf("disable=%v: wrong result %d, want %d", disable, got, want)
		}
		return st.Cycles
	}
	withLoop := run(false)
	without := run(true)
	if withLoop > without {
		t.Errorf("loop spilling slower: %d cycles vs %d disabled", withLoop, without)
	}
}

func TestSplitEdgePreservesSemantics(t *testing.T) {
	f := ir.MustParse(liveThroughSrc)
	outer := f.BlockByName("outer")
	done := f.BlockByName("done")
	nb := f.SplitEdge(outer, done)
	if err := f.Verify(); err != nil {
		t.Fatalf("verify after split: %v", err)
	}
	if len(nb.Preds) != 1 || nb.Preds[0] != outer || nb.Succs[0] != done {
		t.Fatal("split block miswired")
	}
	m, _ := pipeline.New(pipeline.LowEnd())
	args := []int64{6, 5}
	want, _, _ := m.Run(ir.MustParse(liveThroughSrc), nil, pipeline.RunOptions{Args: args})
	got, _, err := m.Run(f, nil, pipeline.RunOptions{Args: args})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("split changed semantics: %d vs %d", got, want)
	}
}
