package pipeline

import (
	"strings"
	"testing"

	"diffra/internal/diffenc"
	"diffra/internal/interp"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/regalloc"
)

const sumSrc = `
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
  v6 = li 4
  v0 = add v0, v6
  jmp head
exit:
  ret v2
}
`

func newMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(LowEnd())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func arrayMem(base int64, vals []int64) map[int64]int64 {
	m := map[int64]int64{}
	for i, v := range vals {
		m[base+int64(i*4)] = v
	}
	return m
}

func TestRunSemanticReference(t *testing.T) {
	f := ir.MustParse(sumSrc)
	m := newMachine(t)
	vals := []int64{3, 5, 7, 11}
	ret, st, err := m.Run(f, nil, RunOptions{
		Args: []int64{100, int64(len(vals))},
		Mem:  arrayMem(100, vals),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ret != 26 {
		t.Errorf("sum = %d, want 26", ret)
	}
	if st.Instrs == 0 || st.Cycles < st.Instrs {
		t.Errorf("stats implausible: %+v", st)
	}
	if st.MemOps != uint64(len(vals)) {
		t.Errorf("mem ops = %d, want %d", st.MemOps, len(vals))
	}
}

// TestAllocatedMatchesReference is the simulator's central property:
// executing through the allocator's machine registers produces the
// same value as the virtual-register reference — a dynamic proof that
// the coloring is semantics-preserving.
func TestAllocatedMatchesReference(t *testing.T) {
	f := ir.MustParse(sumSrc)
	m := newMachine(t)
	vals := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	args := []int64{400, int64(len(vals))}
	mem := arrayMem(400, vals)

	want, _, err := m.Run(f, nil, RunOptions{Args: args, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{3, 4, 8} {
		out, asn, err := irc.Allocate(f, irc.Options{K: k})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		got, st, err := m.Run(out, asn, RunOptions{Args: args, OrigParams: f.Params, Mem: mem})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if got != want {
			t.Errorf("K=%d: allocated result %d != reference %d", k, got, want)
		}
		if k == 3 && st.SpillOps == 0 {
			t.Errorf("K=3 should execute spill code")
		}
	}
}

func TestSpilledParamsExecute(t *testing.T) {
	// Eight co-live params with K=4 force stack-passed arguments.
	src := `
func f(v0, v1, v2, v3, v4, v5, v6, v7) {
entry:
  v8 = add v0, v1
  v8 = add v8, v2
  v8 = add v8, v3
  v8 = add v8, v4
  v8 = add v8, v5
  v8 = add v8, v6
  v8 = add v8, v7
  ret v8
}
`
	f := ir.MustParse(src)
	out, asn, err := irc.Allocate(f, irc.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(asn.StackParams) == 0 {
		t.Fatal("expected stack-passed params at K=4")
	}
	m := newMachine(t)
	args := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	got, _, err := m.Run(out, asn, RunOptions{Args: args, OrigParams: f.Params})
	if err != nil {
		t.Fatal(err)
	}
	if got != 36 {
		t.Errorf("sum of args = %d, want 36", got)
	}
}

func TestMoreSpillsMoreCycles(t *testing.T) {
	f := ir.MustParse(sumSrc)
	m := newMachine(t)
	vals := make([]int64, 256)
	for i := range vals {
		vals[i] = int64(i)
	}
	args := []int64{4096, int64(len(vals))}
	mem := arrayMem(4096, vals)

	var prev uint64
	for i, k := range []int{8, 3} {
		out, asn, err := irc.Allocate(f, irc.Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := m.Run(out, asn, RunOptions{Args: args, OrigParams: f.Params, Mem: mem})
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && st.Cycles <= prev {
			t.Errorf("K=3 cycles %d not above K=8 cycles %d", st.Cycles, prev)
		}
		prev = st.Cycles
	}
}

func TestSetLastRegCostsDecodeSlot(t *testing.T) {
	f := ir.MustParse(sumSrc)
	out, asn, err := irc.Allocate(f, irc.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t)
	vals := []int64{9, 9}
	args := []int64{64, 2}
	mem := arrayMem(64, vals)
	_, st0, err := m.Run(out, asn, RunOptions{Args: args, OrigParams: f.Params, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}

	// Differentially encode with a tiny DiffN to force set_last_reg
	// insertions, apply them, and re-run: the value must not change,
	// instruction count and cycles must rise.
	cfg := diffenc.Config{RegN: 8, DiffN: 2}
	res, err := diffenc.Encode(out, func(r ir.Reg) int { return asn.Color[r] }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost() == 0 {
		t.Skip("no sets needed; cannot observe decode cost")
	}
	withSets := out.Clone()
	res2, err := diffenc.Encode(withSets, func(r ir.Reg) int { return asn.Color[r] }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2.ApplyToIR(withSets)
	ret1, st1, err := m.Run(withSets, asn, RunOptions{Args: args, OrigParams: f.Params, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	ret0, _, _ := m.Run(out, asn, RunOptions{Args: args, OrigParams: f.Params, Mem: mem})
	if ret0 != ret1 {
		t.Errorf("set_last_reg changed semantics: %d vs %d", ret0, ret1)
	}
	if st1.SetLastRegs == 0 || st1.Instrs <= st0.Instrs {
		t.Errorf("sets not executed: %+v vs %+v", st1, st0)
	}
}

func TestDivByZeroDefined(t *testing.T) {
	src := `
func f(v0, v1) {
entry:
  v2 = div v0, v1
  v3 = rem v0, v1
  v4 = add v2, v3
  ret v4
}
`
	f := ir.MustParse(src)
	m := newMachine(t)
	got, _, err := m.Run(f, nil, RunOptions{Args: []int64{5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("div/rem by zero = %d, want 0", got)
	}
}

func TestInstructionBudget(t *testing.T) {
	src := `
func f(v0) {
entry:
  jmp entry2
entry2:
  jmp entry2
}
`
	f := ir.MustParse(src)
	cfg := LowEnd()
	cfg.MaxInstrs = 1000
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Run(f, nil, RunOptions{Args: []int64{0}}); err == nil {
		t.Fatal("infinite loop must hit the budget")
	}
}

func TestArgArityChecked(t *testing.T) {
	f := ir.MustParse(sumSrc)
	m := newMachine(t)
	if _, _, err := m.Run(f, nil, RunOptions{Args: []int64{1}}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestDeadParamNotBound(t *testing.T) {
	// An allocator may give a never-read parameter the same machine
	// register as a live one; ArgLive keeps its argument out of the
	// register file so the live value survives binding.
	f := ir.MustParse(`
func dp(v0, v1) {
entry:
  ret v0
}
`)
	asn := &regalloc.Assignment{Color: []int{0, 0}, K: 1, StackParams: map[ir.Reg]int64{}}
	m := newMachine(t)
	ret, _, err := m.Run(f, asn, RunOptions{Args: []int64{7, 99}, ArgLive: []bool{true, false}})
	if err != nil {
		t.Fatal(err)
	}
	if ret != 7 {
		t.Fatalf("dead arg reached the register file: ret=%d", ret)
	}
	if _, _, err := m.Run(f, asn, RunOptions{Args: []int64{7, 99}, ArgLive: []bool{true}}); err == nil {
		t.Fatal("want ArgLive arity error")
	}
}

// TestMalformedRunsFail: a program the simulator cannot execute is an
// error, never a panic.
func TestMalformedRunsFail(t *testing.T) {
	f := ir.MustParse(`
func f(v0) {
entry:
  v1 = add v0, v0
  ret v1
}
`)
	m := newMachine(t)
	for _, c := range []struct {
		name  string
		color []int
	}{{"uncolored", []int{0, -1}}, {"beyond K", []int{0, 9}}} {
		asn := &regalloc.Assignment{Color: c.color, K: 4}
		if _, _, err := m.Run(f, asn, RunOptions{Args: []int64{1}}); err == nil {
			t.Errorf("%s operand: want an error", c.name)
		}
	}
	if _, _, err := m.Run(&ir.Func{Name: "empty"}, nil, RunOptions{}); err == nil {
		t.Error("function without blocks: want an error")
	}
}

func TestCacheStatsPopulated(t *testing.T) {
	f := ir.MustParse(sumSrc)
	m := newMachine(t)
	_, st, err := m.Run(f, nil, RunOptions{Args: []int64{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ICache.Accesses == 0 {
		t.Error("icache accesses not recorded")
	}
	if st.ICache.Accesses != st.Instrs {
		t.Errorf("icache accesses %d != instrs %d", st.ICache.Accesses, st.Instrs)
	}
}

func TestVerifyAgainstGoReference(t *testing.T) {
	// Cross-check the interpreter against a native Go implementation
	// of the same kernel on varied inputs.
	f := ir.MustParse(sumSrc)
	m := newMachine(t)
	for n := 0; n <= 16; n += 4 {
		vals := make([]int64, n)
		want := int64(0)
		for i := range vals {
			vals[i] = int64(i*i - 3*i)
			want += vals[i]
		}
		got, _, err := m.Run(f, nil, RunOptions{Args: []int64{8192, int64(n)}, Mem: arrayMem(8192, vals)})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("n=%d: got %d, want %d", n, got, want)
		}
	}
}

// TestAllOpcodesExecute drives every arithmetic, logic and comparison
// opcode through the interpreter and checks against Go semantics.
func TestAllOpcodesExecute(t *testing.T) {
	src := `
func ops(v0, v1) {
entry:
  v2 = sub v0, v1
  v3 = mul v2, v1
  v4 = div v3, v1
  v5 = rem v3, v1
  v6 = and v0, v1
  v7 = or v6, v4
  v8 = xor v7, v5
  v9 = li 2
  v10 = shl v8, v9
  v11 = shr v10, v9
  v12 = neg v11
  v13 = not v12
  v14 = cmpeq v0, v1
  v15 = cmpne v0, v1
  v16 = cmplt v0, v1
  v17 = cmple v0, v0
  v18 = add v13, v14
  v18 = add v18, v15
  v18 = add v18, v16
  v18 = add v18, v17
  ret v18
}
`
	f := ir.MustParse(src)
	m := newMachine(t)
	ref := func(a, b int64) int64 {
		x := (a - b) * b
		d := x / b
		r := x % b
		y := ((a & b) | d) ^ r
		y = int64(uint64(y<<2) >> 2)
		y = ^(-y)
		var c int64
		if a == b {
			c++ // cmpeq
		}
		if a != b {
			c++ // cmpne
		}
		if a < b {
			c++ // cmplt
		}
		c++ // cmple: a <= a
		return y + c
	}
	for _, args := range [][2]int64{{10, 3}, {-7, 2}, {100, 9}, {5, 5}} {
		got, _, err := m.Run(f, nil, RunOptions{Args: args[:]})
		if err != nil {
			t.Fatal(err)
		}
		if want := ref(args[0], args[1]); got != want {
			t.Errorf("args %v: got %d, want %d", args, got, want)
		}
	}
}

// TestBranchVariants exercises beq/bne/ble and the br-on-register form.
func TestBranchVariants(t *testing.T) {
	src := `
func b(v0, v1) {
entry:
  v2 = li 0
  beq v0, v1 -> eq, ne
eq:
  v3 = li 1
  v2 = add v2, v3
  jmp next
ne:
  v4 = li 2
  v2 = add v2, v4
  jmp next
next:
  ble v0, v1 -> le, gt
le:
  v5 = li 10
  v2 = add v2, v5
  jmp next2
gt:
  v6 = li 20
  v2 = add v2, v6
  jmp next2
next2:
  v7 = cmpne v0, v1
  br v7 -> t, f
t:
  v8 = li 100
  v2 = add v2, v8
  jmp done
f:
  jmp done
done:
  bne v0, v1 -> t2, f2
t2:
  v9 = li 1000
  v2 = add v2, v9
  jmp out
f2:
  jmp out
out:
  ret v2
}
`
	f := ir.MustParse(src)
	m := newMachine(t)
	cases := map[[2]int64]int64{
		{3, 3}: 1 + 10,
		{2, 5}: 2 + 10 + 100 + 1000,
		{9, 1}: 2 + 20 + 100 + 1000,
	}
	for args, want := range cases {
		got, st, err := m.Run(f, nil, RunOptions{Args: args[:]})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("args %v: got %d, want %d", args, got, want)
		}
		if st.Branches == 0 {
			t.Error("branches not counted")
		}
		if st.CPI() <= 0 {
			t.Error("CPI not positive")
		}
	}
}

// TestCallUsesIntrinsicStub pins the one call rule the simulator
// shares with the oracle: a call returns interp's deterministic stub
// value.
func TestCallUsesIntrinsicStub(t *testing.T) {
	src := `
func c(v0) {
entry:
  v1 = call helper, v0
  v2 = add v1, v0
  ret v2
}
`
	f := ir.MustParse(src)
	m := newMachine(t)
	got, st, err := m.Run(f, nil, RunOptions{Args: []int64{7}})
	if err != nil {
		t.Fatal(err)
	}
	if want := 7 + interp.Intrinsic("helper", []int64{7}); got != want {
		t.Errorf("call result = %d, want %d (7 + the intrinsic stub)", got, want)
	}
	if st.ICache.Accesses == 0 {
		t.Error("icache accesses not recorded")
	}
}

func TestBadCacheConfigRejected(t *testing.T) {
	cfg := LowEnd()
	cfg.ICache.LineSize = 33
	if _, err := New(cfg); err == nil {
		t.Fatal("bad icache geometry accepted")
	}
	cfg = LowEnd()
	cfg.DCache.Size = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("bad dcache geometry accepted")
	}
}

func TestBlockCountsProfile(t *testing.T) {
	f := ir.MustParse(sumSrc)
	m := newMachine(t)
	n := 6
	vals := make([]int64, n)
	_, st, err := m.Run(f, nil, RunOptions{Args: []int64{512, int64(n)}, Mem: arrayMem(512, vals)})
	if err != nil {
		t.Fatal(err)
	}
	entry := f.Entry()
	body := f.BlockByName("body")
	head := f.BlockByName("head")
	if st.BlockCounts[entry.Index] != 1 {
		t.Errorf("entry count %d", st.BlockCounts[entry.Index])
	}
	if st.BlockCounts[body.Index] != uint64(n) {
		t.Errorf("body count %d, want %d", st.BlockCounts[body.Index], n)
	}
	if st.BlockCounts[head.Index] != uint64(n+1) {
		t.Errorf("head count %d, want %d", st.BlockCounts[head.Index], n+1)
	}
}

func TestJumpsCountAsTakenBranches(t *testing.T) {
	f := ir.MustParse(sumSrc)
	m := newMachine(t)
	vals := []int64{1, 2, 3}
	n := int64(len(vals))
	_, st, err := m.Run(f, nil, RunOptions{Args: []int64{100, n}, Mem: arrayMem(100, vals)})
	if err != nil {
		t.Fatal(err)
	}
	// Per iteration: blt (taken into body) + jmp back; plus the entry
	// jmp and the final not-taken blt. Every jmp is an always-taken
	// branch.
	wantBranches := uint64(2*n + 2)
	wantTaken := uint64(2*n + 1)
	if st.Branches != wantBranches || st.Taken != wantTaken {
		t.Fatalf("branches=%d taken=%d, want %d/%d", st.Branches, st.Taken, wantBranches, wantTaken)
	}
}

func TestCycleAttributionAddsUp(t *testing.T) {
	f := ir.MustParse(sumSrc)
	m := newMachine(t)
	vals := []int64{3, 5, 7, 11}
	_, st, err := m.Run(f, nil, RunOptions{Args: []int64{100, int64(len(vals))}, Mem: arrayMem(100, vals)})
	if err != nil {
		t.Fatal(err)
	}
	var opCycles, opCounts, blockCycles uint64
	for _, c := range st.OpCycles {
		opCycles += c
	}
	for _, c := range st.OpCounts {
		opCounts += c
	}
	for _, c := range st.BlockCycles {
		blockCycles += c
	}
	if opCycles != st.Cycles {
		t.Fatalf("per-opcode cycles %d != total %d", opCycles, st.Cycles)
	}
	if blockCycles != st.Cycles {
		t.Fatalf("per-block cycles %d != total %d", blockCycles, st.Cycles)
	}
	if opCounts != st.Instrs {
		t.Fatalf("per-opcode counts %d != instrs %d", opCounts, st.Instrs)
	}
	if st.OpCounts[ir.OpLoad] != uint64(len(vals)) {
		t.Fatalf("load count = %d, want %d", st.OpCounts[ir.OpLoad], len(vals))
	}
	top := st.TopOps(3)
	if len(top) == 0 || top[0].Cycles < top[len(top)-1].Cycles {
		t.Fatalf("TopOps not sorted by cycles: %+v", top)
	}
}

func TestStatsString(t *testing.T) {
	f := ir.MustParse(sumSrc)
	m := newMachine(t)
	_, st, err := m.Run(f, nil, RunOptions{Args: []int64{100, 0}})
	if err != nil {
		t.Fatal(err)
	}
	s := st.String()
	for _, want := range []string{"cycles=", "instrs=", "cpi=", "branches=", "taken=", "imiss=", "dmiss="} {
		if !strings.Contains(s, want) {
			t.Fatalf("Stats.String() missing %q: %s", want, s)
		}
	}
}
