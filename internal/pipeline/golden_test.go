package pipeline_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"diffra"
	"diffra/internal/pipeline"
	"diffra/internal/workloads"
)

// TestSimulatorGolden pins every Stats field and the return value of
// the low-end simulator on the ten §8 kernels, each run on virtual
// registers and under the five schemes (baseline and ospill at K=8,
// the differential schemes at RegN=12/DiffN=8). The hash covers the
// cycle model (caches, latencies, bubbles) and the per-op and
// per-block attribution, so a failure means simulated figures moved:
// intended changes must update this constant AND re-run the §10.1
// tables.
func TestSimulatorGolden(t *testing.T) {
	type variant struct {
		name   string
		scheme diffra.Scheme
		regN   int
		diffN  int
	}
	variants := []variant{
		{"baseline", diffra.Baseline, 8, 8},
		{"ospill", diffra.OSpill, 8, 8},
		{"remapping", diffra.Remapping, 12, 8},
		{"select", diffra.Select, 12, 8},
		{"coalesce", diffra.Coalesce, 12, 8},
	}
	m, err := pipeline.New(pipeline.LowEnd())
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	record := func(kernel, name string, ret int64, st pipeline.Stats) {
		fmt.Fprintln(h, kernel, name, ret, st.Cycles, st.Instrs, st.SetLastRegs, st.SpillOps,
			st.MemOps, st.Branches, st.Taken,
			st.ICache.Accesses, st.ICache.Misses, st.DCache.Accesses, st.DCache.Misses,
			st.BlockCounts, st.BlockCycles, st.BlockIMisses, st.BlockDMisses,
			st.OpCycles, st.OpCounts)
	}
	for _, k := range workloads.Kernels() {
		ref, st, err := m.Run(k.F, nil, pipeline.RunOptions{Args: k.Args, Mem: k.Mem})
		if err != nil {
			t.Fatalf("%s reference: %v", k.Name, err)
		}
		record(k.Name, "vreg", ref, st)
		for _, v := range variants {
			res, err := diffra.CompileFunc(k.F, diffra.Options{
				Scheme: v.scheme, RegN: v.regN, DiffN: v.diffN, Restarts: 60, RemapWorkers: 1,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", k.Name, v.name, err)
			}
			ret, st, err := m.Run(res.F, res.Assignment, pipeline.RunOptions{
				Args: k.Args, OrigParams: k.F.Params, Mem: k.Mem,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", k.Name, v.name, err)
			}
			if ret != ref {
				t.Errorf("%s/%s: returned %d, reference %d", k.Name, v.name, ret, ref)
			}
			record(k.Name, v.name, ret, st)
		}
	}
	if got, want := h.Sum64(), uint64(0x0fe6444c8740dcdc); got != want {
		t.Errorf("simulator hash %#x, golden %#x", got, want)
	}
}
