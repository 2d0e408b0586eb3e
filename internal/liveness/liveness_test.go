package liveness

import (
	"testing"

	"diffra/internal/bitset"
	"diffra/internal/ir"
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

func TestLiveInOut(t *testing.T) {
	f := ir.MustParse(loopSrc)
	info := Compute(f)
	head := f.BlockByName("head")
	// Loop-carried: v0 (pointer), v1 (bound), v2 (acc), v3 (i).
	for _, v := range []int{0, 1, 2, 3} {
		if !info.LiveIn[head.Index].Has(v) {
			t.Errorf("v%d should be live into head", v)
		}
	}
	if info.LiveIn[head.Index].Has(4) || info.LiveIn[head.Index].Has(5) {
		t.Error("v4/v5 are body-local, not live into head")
	}
	exit := f.BlockByName("exit")
	if !info.LiveIn[exit.Index].Has(2) {
		t.Error("v2 live into exit")
	}
	if info.LiveOut[exit.Index].Len() != 0 {
		t.Error("nothing live out of exit")
	}
	entry := f.Entry()
	if !info.LiveIn[entry.Index].Has(0) || !info.LiveIn[entry.Index].Has(1) {
		t.Error("params live into entry")
	}
	if info.LiveIn[entry.Index].Has(2) {
		t.Error("v2 defined in entry, not live in")
	}
}

func TestLiveParams(t *testing.T) {
	// v0 is read, v1 is never touched, v2 is redefined on every path
	// before any read: only v0's incoming value is observable.
	f := ir.MustParse(`
func g(v0, v1, v2) {
entry:
  v3 = li 1
  br v0 -> a, b
a:
  v2 = add v0, v3
  jmp out
b:
  v2 = li 9
  jmp out
out:
  ret v2
}
`)
	got := LiveParams(f)
	want := []bool{true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("param %d: live=%v, want %v", i, got[i], want[i])
		}
	}
	// If one path reads v2 before redefining it, it becomes live.
	f2 := ir.MustParse(`
func h(v0, v2) {
entry:
  br v0 -> a, out
a:
  v2 = li 9
  jmp out
out:
  ret v2
}
`)
	if got := LiveParams(f2); !got[1] {
		t.Error("v2 is read on the fall-through path: must be live")
	}
}

func TestLiveAcross(t *testing.T) {
	f := ir.MustParse(loopSrc)
	info := Compute(f)
	body := f.BlockByName("body")
	// Collect live-after sets per instruction index.
	after := map[int][]int{}
	info.LiveAcross(body, func(idx int, in *ir.Instr, live *bitset.Set) {
		after[idx] = live.Elems()
	})
	// After "v4 = load v0, 0" (idx 0): v4 must be live (used by add),
	// and the loop-carried regs v0..v3 as well.
	has := func(idx, v int) bool {
		for _, x := range after[idx] {
			if x == v {
				return true
			}
		}
		return false
	}
	if !has(0, 4) {
		t.Errorf("v4 live after load; got %v", after[0])
	}
	// After "v2 = add v2, v4" (idx 1): v4 is dead.
	if has(1, 4) {
		t.Errorf("v4 dead after add; got %v", after[1])
	}
	// v5 is live after its def (idx 2) and dead after its last use (idx 4).
	if !has(2, 5) || has(4, 5) {
		t.Errorf("v5 range wrong: after2=%v after4=%v", after[2], after[4])
	}
}

func TestMaxPressure(t *testing.T) {
	f := ir.MustParse(loopSrc)
	info := Compute(f)
	// Peak: v0,v1,v2,v3,v5 after "v5 = li 1" plus nothing else => 5.
	if got := info.MaxPressure(); got != 5 {
		t.Errorf("MaxPressure = %d, want 5", got)
	}
}

func TestMaxPressureStraightLine(t *testing.T) {
	src := `
func f(v0) {
entry:
  v1 = li 1
  v2 = add v0, v1
  ret v2
}
`
	f := ir.MustParse(src)
	if got := Compute(f).MaxPressure(); got != 2 {
		t.Errorf("MaxPressure = %d, want 2", got)
	}
}

func TestSpillCostsLoopWeighting(t *testing.T) {
	f := ir.MustParse(loopSrc)
	costs := SpillCostsWeighted(f, f.BlockFreqs(), nil)
	// v4 occurs twice, both in the loop body: cost 20.
	if costs[4] != 20 {
		t.Errorf("cost(v4) = %v, want 20", costs[4])
	}
	// v1: once in entry-adjacent head (in loop, weight 10).
	if costs[1] != 10 {
		t.Errorf("cost(v1) = %v, want 10", costs[1])
	}
	// Loop-heavy registers must cost more than entry-only ones.
	if costs[3] <= costs[1] {
		t.Errorf("cost(v3)=%v should exceed cost(v1)=%v", costs[3], costs[1])
	}
}

func TestDeadCodeHasEmptyLiveOut(t *testing.T) {
	src := `
func f(v0) {
entry:
  v1 = add v0, v0   ; v1 never used
  ret v0
}
`
	f := ir.MustParse(src)
	info := Compute(f)
	info.LiveAcross(f.Entry(), func(idx int, in *ir.Instr, live *bitset.Set) {
		if idx == 0 && live.Has(1) {
			t.Error("dead v1 reported live")
		}
	})
}

func TestOccurrences(t *testing.T) {
	f := ir.MustParse(loopSrc)
	occ := Occurrences(f)
	// v4: defined once, used once (both in body).
	if occ[4] != 2 {
		t.Errorf("occ(v4) = %v, want 2", occ[4])
	}
	// v2: def entry, def+use body, use exit = 4 occurrences.
	if occ[2] != 4 {
		t.Errorf("occ(v2) = %v, want 4", occ[2])
	}
	// Unlike SpillCostsWeighted, occurrences ignore loop depth.
	costs := SpillCostsWeighted(f, f.BlockFreqs(), nil)
	if costs[4] <= occ[4] {
		t.Errorf("loop-weighted cost %v should exceed occurrence count %v", costs[4], occ[4])
	}
}
