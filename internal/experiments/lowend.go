// Package experiments reproduces every table and figure of the
// paper's evaluation (§10): the low-end ARM/THUMB-like study
// (Figures 11–14) over the Mibench-like kernel suite, and the VLIW
// software-pipelining study (Tables 2–3) over the SPEC-like loop
// population. See EXPERIMENTS.md for measured-vs-paper values.
package experiments

import (
	"fmt"

	"diffra"
	"diffra/internal/par"
	"diffra/internal/pipeline"
	"diffra/internal/workloads"
)

// Scheme names, in the paper's presentation order.
const (
	SchemeBaseline = "baseline"  // iterated register coalescing, 8 regs, direct encoding
	SchemeRemap    = "remapping" // 12 regs + post-pass differential remapping (§5)
	SchemeSelect   = "select"    // 12 regs + differential select (§6)
	SchemeOSpill   = "O-spill"   // optimal spilling, 8 regs, direct encoding
	SchemeCoalesce = "coalesce"  // optimal spilling + differential coalesce, 12 regs (§7)
)

// Schemes lists all five configurations of Figures 11–14.
func Schemes() []string {
	return []string{SchemeBaseline, SchemeRemap, SchemeSelect, SchemeOSpill, SchemeCoalesce}
}

// LowEndConfig parameterizes the §10.1 experiment.
type LowEndConfig struct {
	// BaselineK is the directly encodable register count (8: 3-bit
	// fields). RegN/DiffN configure differential encoding (12/8).
	BaselineK, RegN, DiffN int
	// Restarts bounds the remapping search (paper: 1000).
	Restarts int
	// Workers bounds concurrent kernel×scheme cells (0: GOMAXPROCS).
	// Every cell is independent and deterministic, so the report is
	// identical at any worker count.
	Workers int
}

// DefaultLowEnd returns the paper's configuration.
func DefaultLowEnd() LowEndConfig {
	return LowEndConfig{BaselineK: 8, RegN: 12, DiffN: 8, Restarts: 1000}
}

// KernelResult is one kernel under one scheme.
type KernelResult struct {
	Kernel, Scheme string
	// Static counts over the final code (set_last_reg included).
	Instrs, SpillInstrs, SetLastRegs int
	CodeBytes                        int
	// Dynamic measurements.
	Cycles uint64
	Ret    int64
}

// SpillPct is spill instructions as a percentage of all code (Fig 11).
func (r KernelResult) SpillPct() float64 { return pct(r.SpillInstrs, r.Instrs) }

// CostPct is set_last_reg instructions as a percentage of code (Fig 12).
func (r KernelResult) CostPct() float64 { return pct(r.SetLastRegs, r.Instrs) }

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// LowEndReport aggregates the experiment.
type LowEndReport struct {
	Config  LowEndConfig
	Results map[string]map[string]KernelResult // scheme -> kernel -> result
	Kernels []string
}

// AvgSpillPct averages Figure 11's metric over kernels.
func (rep *LowEndReport) AvgSpillPct(scheme string) float64 {
	return rep.avg(scheme, KernelResult.SpillPct)
}

// AvgCostPct averages Figure 12's metric.
func (rep *LowEndReport) AvgCostPct(scheme string) float64 {
	return rep.avg(scheme, KernelResult.CostPct)
}

// AvgCodeSize averages Figure 13's metric: code size normalized to the
// baseline.
func (rep *LowEndReport) AvgCodeSize(scheme string) float64 {
	sum := 0.0
	for _, k := range rep.Kernels {
		base := rep.Results[SchemeBaseline][k].CodeBytes
		sum += float64(rep.Results[scheme][k].CodeBytes) / float64(base)
	}
	return sum / float64(len(rep.Kernels))
}

// AvgSpeedup averages Figure 14's metric: percentage speedup over the
// baseline ((base/cycles - 1) * 100).
func (rep *LowEndReport) AvgSpeedup(scheme string) float64 {
	sum := 0.0
	for _, k := range rep.Kernels {
		base := rep.Results[SchemeBaseline][k].Cycles
		sum += (float64(base)/float64(rep.Results[scheme][k].Cycles) - 1) * 100
	}
	return sum / float64(len(rep.Kernels))
}

func (rep *LowEndReport) avg(scheme string, f func(KernelResult) float64) float64 {
	sum := 0.0
	for _, k := range rep.Kernels {
		sum += f(rep.Results[scheme][k])
	}
	return sum / float64(len(rep.Kernels))
}

// RunLowEnd executes the full §10.1 experiment: each kernel is
// compiled under all five schemes, encoded, statically measured and
// simulated on the low-end pipeline. Every allocation is verified and
// every differential encoding is checked decodable; every simulated
// run must return the same value as the virtual-register reference.
//
// The kernel×scheme cells are independent, so they fan out over
// cfg.Workers goroutines; results land in per-cell slots, keeping the
// report deterministic regardless of completion order.
func RunLowEnd(cfg LowEndConfig) (*LowEndReport, error) {
	rep := &LowEndReport{
		Config:  cfg,
		Results: map[string]map[string]KernelResult{},
	}
	schemes := Schemes()
	for _, s := range schemes {
		rep.Results[s] = map[string]KernelResult{}
	}
	kernels := workloads.Kernels()
	for _, k := range kernels {
		rep.Kernels = append(rep.Kernels, k.Name)
	}

	// Reference runs, one per kernel, on virtual registers. The
	// pipeline machine keeps per-run state, so each task builds its own.
	refs := make([]int64, len(kernels))
	err := par.Map(cfg.Workers, len(kernels), func(i int) error {
		mach, err := pipeline.New(pipeline.LowEnd())
		if err != nil {
			return err
		}
		want, _, err := mach.Run(kernels[i].F, nil, pipeline.RunOptions{Args: kernels[i].Args, Mem: kernels[i].Mem})
		if err != nil {
			return fmt.Errorf("%s reference: %w", kernels[i].Name, err)
		}
		refs[i] = want
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The kernel×scheme grid.
	cells := make([]*KernelResult, len(kernels)*len(schemes))
	err = par.Map(cfg.Workers, len(cells), func(c int) error {
		k, scheme := &kernels[c/len(schemes)], schemes[c%len(schemes)]
		mach, err := pipeline.New(pipeline.LowEnd())
		if err != nil {
			return err
		}
		res, err := runKernelScheme(mach, k, scheme, cfg)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", k.Name, scheme, err)
		}
		if want := refs[c/len(schemes)]; res.Ret != want {
			return fmt.Errorf("%s/%s: returned %d, reference %d", k.Name, scheme, res.Ret, want)
		}
		cells[c] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for c, res := range cells {
		rep.Results[schemes[c%len(schemes)]][kernels[c/len(schemes)].Name] = *res
	}
	return rep, nil
}

// runKernelScheme compiles one cell of the grid through the facade,
// which verifies the allocation and checks the differential encoding,
// and simulates the result. The cells already fan out over the cores,
// so the remapping search runs serially.
func runKernelScheme(mach *pipeline.Machine, k *workloads.Kernel, scheme string, cfg LowEndConfig) (*KernelResult, error) {
	opts := diffra.Options{RegN: cfg.RegN, DiffN: cfg.DiffN, Restarts: cfg.Restarts, RemapWorkers: 1}
	switch scheme {
	case SchemeBaseline:
		opts.Scheme, opts.RegN, opts.DiffN = diffra.Baseline, cfg.BaselineK, cfg.BaselineK
	case SchemeOSpill:
		opts.Scheme, opts.RegN, opts.DiffN = diffra.OSpill, cfg.BaselineK, cfg.BaselineK
	case SchemeRemap:
		opts.Scheme = diffra.Remapping
	case SchemeSelect:
		opts.Scheme = diffra.Select
	case SchemeCoalesce:
		opts.Scheme = diffra.Coalesce
	default:
		return nil, fmt.Errorf("unknown scheme %q", scheme)
	}
	res, err := diffra.CompileFunc(k.F, opts)
	if err != nil {
		return nil, err
	}
	ret, st, err := mach.Run(res.F, res.Assignment, pipeline.RunOptions{Args: k.Args, OrigParams: k.F.Params, Mem: k.Mem})
	if err != nil {
		return nil, err
	}
	return &KernelResult{
		Kernel:      k.Name,
		Scheme:      scheme,
		Instrs:      res.Instrs,
		SpillInstrs: res.SpillInstrs,
		SetLastRegs: res.SetLastRegs,
		CodeBytes:   res.Instrs * pipeline.LowEnd().InstrBytes,
		Cycles:      st.Cycles,
		Ret:         ret,
	}, nil
}
