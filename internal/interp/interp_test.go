package interp

import (
	"strings"
	"testing"

	"diffra/internal/ir"
	"diffra/internal/irc"
)

const sumSrc = `
func sum(v0) {
entry:
  v1 = li 0
  v2 = li 1
  jmp loop
loop:
  v1 = add v1, v0
  v0 = sub v0, v2
  br v0 -> loop, done
done:
  ret v1
}
`

func TestRunSum(t *testing.T) {
	f := ir.MustParse(sumSrc)
	tr, err := Run(f, Options{Args: []int64{5}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ret != 15 || tr.Halt != HaltRet {
		t.Fatalf("sum(5): got ret=%d halt=%s, want 15/ret", tr.Ret, tr.Halt)
	}
}

func TestStoresAreObservable(t *testing.T) {
	f := ir.MustParse(`
func w(v0) {
entry:
  v1 = li 7
  store v1, v0, 4
  store v0, v0, 8
  ret v1
}
`)
	tr, err := Run(f, Options{Args: []int64{100}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEvents != 2 {
		t.Fatalf("want 2 events, got %d", tr.NumEvents)
	}
	if got := tr.Events[0].String(); got != "store mem[104] = 7" {
		t.Fatalf("event 0: %q", got)
	}
	if got := tr.Events[1].String(); got != "store mem[108] = 100" {
		t.Fatalf("event 1: %q", got)
	}
}

func TestSpillTrafficInvisible(t *testing.T) {
	f := ir.MustParse(`
func s(v0) {
entry:
  spill_store v0, 0
  v1 = spill_load 0
  ret v1
}
`)
	tr, err := Run(f, Options{Args: []int64{42}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEvents != 0 {
		t.Fatalf("spill ops must not be observable, got %d events", tr.NumEvents)
	}
	if tr.Ret != 42 {
		t.Fatalf("spill round-trip lost the value: ret=%d", tr.Ret)
	}
}

func TestBudgetHaltComparable(t *testing.T) {
	f := ir.MustParse(`
func inf(v0) {
entry:
  v1 = li 1
  jmp loop
loop:
  v0 = add v0, v1
  store v0, v1, 0
  jmp loop
}
`)
	a, err := Run(f, Options{Args: []int64{0}, MaxSteps: 500})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(f, Options{Args: []int64{0}, MaxSteps: 500})
	if err != nil {
		t.Fatal(err)
	}
	if a.Halt != HaltBudget {
		t.Fatalf("want budget halt, got %s", a.Halt)
	}
	if !a.Equal(b) {
		t.Fatalf("identical bounded runs must produce equal traces: %s", a.Diff(b, "a", "b"))
	}
}

func TestCallStubDeterministic(t *testing.T) {
	f := ir.MustParse(`
func c(v0) {
entry:
  v1 = call rand, v0
  v2 = call rand, v0
  ret v1
}
`)
	tr, err := Run(f, Options{Args: []int64{3}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEvents != 2 {
		t.Fatalf("want 2 call events, got %d", tr.NumEvents)
	}
	if tr.Events[0].Ret != tr.Events[1].Ret {
		t.Fatalf("intrinsic stub must be pure: %d != %d", tr.Events[0].Ret, tr.Events[1].Ret)
	}
	if Intrinsic("rand", []int64{3}) != tr.Events[0].Ret {
		t.Fatalf("stub value must be reproducible outside a run")
	}
}

// TestAllocatedMatchesReference runs a function before and after
// register allocation and demands identical traces — the core move the
// difftest oracle makes.
func TestAllocatedMatchesReference(t *testing.T) {
	orig := ir.MustParse(sumSrc)
	ref, err := Run(orig, Options{Args: []int64{10}})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 8} {
		out, asn, err := irc.Allocate(ir.MustParse(sumSrc), irc.Options{K: k})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		got, err := Run(out, Options{
			Args:        []int64{10},
			OrigParams:  orig.Params,
			StackParams: asn.StackParams,
			NumRegs:     asn.K,
			RegOf:       func(r ir.Reg) int { return asn.Color[r] },
		})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if !ref.Equal(got) {
			t.Fatalf("K=%d: allocated run diverges: %s", k, ref.Diff(got, "ref", "alloc"))
		}
	}
}

func TestTraceDiffReports(t *testing.T) {
	f := ir.MustParse(`
func a(v0) {
entry:
  store v0, v0, 0
  ret v0
}
`)
	x, err := Run(f, Options{Args: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	y, err := Run(f, Options{Args: []int64{2}})
	if err != nil {
		t.Fatal(err)
	}
	if x.Equal(y) {
		t.Fatal("different runs must not compare equal")
	}
	if d := x.Diff(y, "ref", "got"); !strings.Contains(d, "event 0") {
		t.Fatalf("diff should locate the first event: %q", d)
	}
}

func TestArgArityChecked(t *testing.T) {
	f := ir.MustParse(sumSrc)
	if _, err := Run(f, Options{Args: []int64{1, 2}}); err == nil {
		t.Fatal("want arity error")
	}
}

func TestDeadParamNotBound(t *testing.T) {
	// v1 is never read, so an allocator may give it the same machine
	// register as v0 (a dead value interferes with nothing). Binding
	// must then skip v1's argument or it clobbers v0's.
	f := ir.MustParse(`
func dp(v0, v1) {
entry:
  store v0, v0, 0
  ret v0
}
`)
	sameReg := func(r ir.Reg) int { return 0 }
	tr, err := Run(f, Options{
		Args: []int64{7, 99}, NumRegs: 1, RegOf: sameReg,
		ArgLive: []bool{true, false},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ret != 7 || tr.Events[0].String() != "store mem[7] = 7" {
		t.Fatalf("dead arg reached the register file: ret=%d event=%s", tr.Ret, tr.Events[0])
	}
	// Without the flags the in-order binding clobbers — the exact
	// divergence ArgLive exists to prevent.
	tr2, err := Run(f, Options{Args: []int64{7, 99}, NumRegs: 1, RegOf: sameReg})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Ret != 99 {
		t.Fatalf("blind binding should clobber in this setup, got ret=%d", tr2.Ret)
	}
	// Flag count must match the original parameter count.
	if _, err := Run(f, Options{Args: []int64{7, 99}, NumRegs: 1, RegOf: sameReg, ArgLive: []bool{true}}); err == nil {
		t.Fatal("want ArgLive arity error")
	}
}

// TestStepReports pins what a Step tells a timing model: the layout
// index, the data address of each memory op, the successor control
// moved to, and the returned value.
func TestStepReports(t *testing.T) {
	f := ir.MustParse(`
func s(v0) {
entry:
  v1 = load v0, 4
  spill_store v1, 2
  beq v1, v0 -> same, differ
same:
  ret v1
differ:
  ret v0
}
`)
	m, err := New(f, Options{Args: []int64{100}, Mem: map[int64]int64{104: 5}})
	if err != nil {
		t.Fatal(err)
	}
	want := []Step{
		{Block: f.Blocks[0], Index: 0, Mem: true, Addr: 104, Succ: -1},
		{Block: f.Blocks[0], Index: 1, Mem: true, Addr: SpillBase + 2, Succ: -1},
		{Block: f.Blocks[0], Index: 2, Succ: 1},
		{Block: f.Blocks[2], Index: 4, Succ: -1, Done: true, Ret: 100},
	}
	for i, w := range want {
		s, err := m.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got := *s
		got.In = nil
		if got != w {
			t.Fatalf("step %d: got %+v, want %+v", i, got, w)
		}
	}
}
