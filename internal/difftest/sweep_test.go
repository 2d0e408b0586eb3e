package difftest

import (
	"fmt"
	"os"
	"testing"

	"diffra"
	"diffra/internal/diffenc"
	"diffra/internal/interp"
	"diffra/internal/liveness"
	"diffra/internal/workloads"
)

// full reports whether the exhaustive grid was requested. The default
// run already covers every kernel, every scheme, and every RegN in the
// grid; DIFFTEST_FULL=1 additionally takes DiffN through its entire
// range at the scheme level instead of the sampled values.
func full() bool { return os.Getenv("DIFFTEST_FULL") == "1" }

func regGrid(t *testing.T) []int {
	if testing.Short() {
		return []int{8, 12}
	}
	return []int{8, 12, 16, 31, 32}
}

// diffSample picks the DiffN values worth compiling at a given RegN:
// the degenerate alphabet, a mid point, the widest non-direct one, and
// the direct-equivalent boundary.
func diffSample(regN int) []int {
	seen := map[int]bool{}
	var out []int
	for _, d := range []int{1, regN / 2, regN - 1, regN} {
		if d >= 1 && !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// TestSweepSchemes is the cross-scheme differential sweep: every
// Mibench kernel, compiled under every scheme at every grid geometry,
// must reproduce the kernel's reference trace through the allocation
// and through both stream-decode models. The paper's correctness claim
// — differential encoding is a pure representation change — is exactly
// this test. Every geometry compiles twice: once under the scheme's
// preferred allocation backend and once forced onto the SSA fast-path
// scan, pinning the portfolio's equivalence claim — swapping the
// backend changes latency, never semantics.
func TestSweepSchemes(t *testing.T) {
	schemes := []diffra.Scheme{diffra.Baseline, diffra.Remapping, diffra.Select, diffra.OSpill, diffra.Coalesce}
	backends := []diffra.Backend{"", diffra.AllocSSA}
	checked := 0
	for _, k := range workloads.Kernels() {
		// One liveness analysis per source kernel, shared by every
		// scheme×geometry comparison below via spec.ArgLive.
		spec := RunSpec{Args: k.Args, Mem: k.Mem, ArgLive: liveness.LiveParams(k.F)}
		ref, err := Reference(k.F, spec)
		if err != nil {
			t.Fatalf("%s: reference: %v", k.Name, err)
		}
		if ref.Halt != interp.HaltRet {
			t.Fatalf("%s: reference did not terminate", k.Name)
		}
		for _, regN := range regGrid(t) {
			for _, scheme := range schemes {
				diffNs := diffSample(regN)
				if full() {
					diffNs = diffNs[:0]
					for d := 1; d <= regN; d++ {
						diffNs = append(diffNs, d)
					}
				}
				if scheme == diffra.Baseline || scheme == diffra.OSpill {
					// Non-differential schemes never read DiffN: one
					// compile per register count covers them.
					diffNs = diffNs[:1]
				}
				for _, diffN := range diffNs {
					for _, backend := range backends {
						name := fmt.Sprintf("%s/%s/R%d/D%d", k.Name, scheme, regN, diffN)
						if backend != "" {
							name += "/" + string(backend)
						}
						res, err := diffra.CompileFunc(k.F, diffra.Options{
							Scheme: scheme, RegN: regN, DiffN: diffN, Restarts: 20, Alloc: backend,
						})
						if err != nil {
							t.Fatalf("%s: compile: %v", name, err)
						}
						if backend != "" && res.AllocBackend != backend {
							t.Fatalf("%s: ran backend %q", name, res.AllocBackend)
						}
						if err := CompareCompiled(k.F, res, ref, spec); err != nil {
							t.Errorf("%s: %v", name, err)
						}
						checked++
					}
				}
			}
		}
	}
	t.Logf("sweep: %d kernel×scheme×geometry compiles verified", checked)
}

// TestSweepEncodingGrid drives the encoding layer through its entire
// DiffN range plus the §9 ablations, against one shared baseline
// allocation per (kernel, RegN): the stream-decoded execution must
// match the direct-register execution for every geometry. This is the
// exhaustive part of the sweep — DiffN runs 1..RegN here even in the
// default configuration, since no search or ILP is involved.
func TestSweepEncodingGrid(t *testing.T) {
	checked := 0
	for _, k := range workloads.Kernels() {
		spec := RunSpec{Args: k.Args, Mem: k.Mem}
		for _, regN := range regGrid(t) {
			res, err := diffra.CompileFunc(k.F, diffra.Options{Scheme: diffra.Baseline, RegN: regN})
			if err != nil {
				t.Fatalf("%s/R%d: baseline compile: %v", k.Name, regN, err)
			}
			// One direct-register trace per (kernel, RegN), shared by
			// every geometry below.
			direct, err := interp.Run(res.F, interp.Options{
				Args: spec.Args, OrigParams: k.F.Params, StackParams: res.Assignment.StackParams,
				Mem: spec.Mem, NumRegs: res.Assignment.K, RegOf: res.Assignment.RegOf,
			})
			if err != nil {
				t.Fatalf("%s/R%d: direct run: %v", k.Name, regN, err)
			}
			for diffN := 1; diffN <= regN; diffN++ {
				cfg := diffenc.Config{RegN: regN, DiffN: diffN}
				if err := CompareEncoding(res.F, res.Assignment, k.F.Params, cfg, spec, direct); err != nil {
					t.Errorf("%s/R%d/D%d: %v", k.Name, regN, diffN, err)
				}
				checked++
			}
			// §9 ablations at a mid-width alphabet.
			mid := regN / 2
			for i, cfg := range []diffenc.Config{
				{RegN: regN, DiffN: mid, Reserved: []int{0, regN - 1}},
				{RegN: regN, DiffN: regN, Reserved: []int{regN / 3}},
				{RegN: regN, DiffN: mid, DstFirst: true},
				{RegN: regN, DiffN: mid, PerInstruction: true},
				{RegN: regN, DiffN: mid, ClassOf: func(r int) int { return r % 2 }},
				{RegN: regN, DiffN: mid, Reserved: []int{1}, DstFirst: true, PerInstruction: true},
				{RegN: regN, DiffN: mid, ClassOf: func(r int) int { return r % 2 }, Reserved: []int{regN - 1}},
			} {
				if err := CompareEncoding(res.F, res.Assignment, k.F.Params, cfg, spec, direct); err != nil {
					t.Errorf("%s/R%d/ablation%d: %v", k.Name, regN, i, err)
				}
				checked++
			}
		}
	}
	t.Logf("encoding grid: %d geometries verified", checked)
}
