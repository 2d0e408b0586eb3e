package diffra_test

import (
	"testing"

	"diffra"
	"diffra/internal/diffenc"
	"diffra/internal/interp"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/pipeline"
	"diffra/internal/regalloc"
	"diffra/internal/scratch"
	"diffra/internal/ssaalloc"
	"diffra/internal/workloads"
)

// Steady-state allocation budgets for the compile hot path, measured
// with a warm per-worker arena — the service configuration. Each
// budget is the measured number plus ~30% headroom: enough slack for
// toolchain drift, tight enough that reintroducing a per-round map or
// a per-call slice (the regressions this PR removed — the seed
// measured ~2100 allocs/op for IRCAllocate/susan) fails immediately.
// testing.AllocsPerRun runs the body once before measuring, which
// absorbs arena warm-up.
const (
	ircAllocateBudget = 200  // measured ~137 (susan, K=8)
	ssaAllocateBudget = 8    // measured 3 (susan, K=32, spill-free scan)
	diffEncodeBudget  = 80   // measured ~26 (sha, RegN=12, DiffN=8)
	compileFuncBudget = 1100 // measured ~864 (crc32, remapping, 8 restarts)
	simulateBudget    = 22   // measured 17 (crc32, K=8; constant per run)
	interpBudget      = 13   // measured 10 (crc32, K=8)
)

func assertAllocBudget(t *testing.T, name string, budget float64, body func()) {
	t.Helper()
	got := testing.AllocsPerRun(20, body)
	t.Logf("%s: %.0f allocs/op (budget %.0f)", name, got, budget)
	if got > budget {
		t.Errorf("%s allocates %.0f/op, budget %.0f — a hot loop regressed", name, got, budget)
	}
}

func TestAllocBudgetIRCAllocate(t *testing.T) {
	k := workloads.KernelByName("susan")
	ar := new(scratch.Arena)
	assertAllocBudget(t, "IRCAllocate/susan", ircAllocateBudget, func() {
		if _, _, err := irc.Allocate(k.F, irc.Options{K: 8, Scratch: ar}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetSSAAllocate pins the fast path's defining property:
// when no program point exceeds K, the dominance-order scan runs on
// flat arena state and a warm worker pays single-digit allocations
// per function. This is the budget the deadline ladder's "ssa always
// fits" assumption rests on, so the headroom is deliberately thin.
func TestAllocBudgetSSAAllocate(t *testing.T) {
	k := workloads.KernelByName("susan")
	ar := new(scratch.Arena)
	assertAllocBudget(t, "SSAAllocate/susan", ssaAllocateBudget, func() {
		if _, _, err := ssaalloc.Allocate(k.F, ssaalloc.Options{K: 32, Scratch: ar}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetDiffEncode(t *testing.T) {
	k := workloads.KernelByName("sha")
	out, asn, err := irc.Allocate(k.F, irc.Options{K: 12})
	if err != nil {
		t.Fatal(err)
	}
	cfg := diffenc.Config{RegN: 12, DiffN: 8}
	regOf := func(r ir.Reg) int { return asn.Color[r] }
	ar := new(scratch.Arena)
	assertAllocBudget(t, "DiffEncode/sha", diffEncodeBudget, func() {
		ar.Reset()
		if _, err := diffenc.EncodeScratch(out, regOf, cfg, ar); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetCompileFunc(t *testing.T) {
	k := workloads.KernelByName("crc32")
	ar := new(scratch.Arena)
	opts := diffra.Options{Scheme: diffra.Remapping, RegN: 8, DiffN: 6, Restarts: 8, Scratch: ar}
	assertAllocBudget(t, "CompileFunc/crc32/remapping", compileFuncBudget, func() {
		if _, err := diffra.CompileFunc(k.F, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// crc32K8 is the allocated crc32 kernel both executor budgets run.
func crc32K8(t *testing.T) (*workloads.Kernel, *ir.Func, *regalloc.Assignment) {
	t.Helper()
	k := workloads.KernelByName("crc32")
	out, asn, err := irc.Allocate(k.F, irc.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	return k, out, asn
}

// TestAllocBudgetSimulate pins the simulator's allocations per run:
// a constant for the run's state, independent of how many
// instructions execute.
func TestAllocBudgetSimulate(t *testing.T) {
	k, out, asn := crc32K8(t)
	m, err := pipeline.New(pipeline.LowEnd())
	if err != nil {
		t.Fatal(err)
	}
	opts := pipeline.RunOptions{Args: k.Args, OrigParams: k.F.Params, Mem: k.Mem}
	assertAllocBudget(t, "Simulate/crc32", simulateBudget, func() {
		if _, _, err := m.Run(out, asn, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetInterp pins the oracle interpreter's allocations per
// run on the same program.
func TestAllocBudgetInterp(t *testing.T) {
	k, out, asn := crc32K8(t)
	opts := interp.Options{
		Args: k.Args, OrigParams: k.F.Params, StackParams: asn.StackParams, Mem: k.Mem,
		NumRegs: asn.K, RegOf: func(r ir.Reg) int { return asn.Color[r] },
	}
	assertAllocBudget(t, "Interp/crc32", interpBudget, func() {
		if _, err := interp.Run(out, opts); err != nil {
			t.Fatal(err)
		}
	})
}
