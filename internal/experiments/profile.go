package experiments

import (
	"fmt"
	"io"

	"diffra/internal/adjacency"
	"diffra/internal/diffenc"
	"diffra/internal/diffsel"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/par"
	"diffra/internal/pipeline"
	"diffra/internal/regalloc"
	"diffra/internal/remap"
	"diffra/internal/workloads"
)

// Profile-guided ablation: §4 notes that "profile information could be
// incorporated to improve the cost estimation. Different adjacent
// access pairs have different execution frequencies." This experiment
// measures that: the select-scheme post-pass (remap + refine) is run
// once with the static 10^depth block weights and once with an
// execution profile collected by the pipeline simulator; the metric is
// the number of set_last_reg instructions actually *executed*.

// ProfileResult compares the two weightings on one kernel.
type ProfileResult struct {
	Kernel string
	// StaticSets / ProfileSets count dynamically executed set_last_reg
	// instructions under each weighting.
	StaticSets, ProfileSets uint64
	// StaticCycles / ProfileCycles are the simulated run times.
	StaticCycles, ProfileCycles uint64
}

// RunProfileGuided executes the ablation over the kernel suite, one
// kernel per task.
func RunProfileGuided(cfg LowEndConfig) ([]ProfileResult, error) {
	kernels := workloads.Kernels()
	out := make([]ProfileResult, len(kernels))
	err := par.Map(cfg.Workers, len(kernels), func(i int) error {
		mach, err := pipeline.New(pipeline.LowEnd())
		if err != nil {
			return err
		}
		r, err := profileOne(mach, &kernels[i], cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", kernels[i].Name, err)
		}
		out[i] = *r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func profileOne(mach *pipeline.Machine, k *workloads.Kernel, cfg LowEndConfig) (*ProfileResult, error) {
	params := diffsel.Params{RegN: cfg.RegN, DiffN: cfg.DiffN}
	alloc, asn, err := irc.Allocate(k.F, irc.Options{
		K:             cfg.RegN,
		PickerFactory: diffsel.NewFactory(params),
	})
	if err != nil {
		return nil, err
	}
	if err := regalloc.Verify(alloc, asn); err != nil {
		return nil, err
	}

	// Profiling run on the un-encoded allocation (no set_last_reg yet).
	_, profStats, err := mach.Run(alloc, asn, pipeline.RunOptions{
		Args: k.Args, OrigParams: k.F.Params, Mem: k.Mem,
	})
	if err != nil {
		return nil, err
	}
	freq := make([]float64, len(profStats.BlockCounts))
	for i, n := range profStats.BlockCounts {
		freq[i] = float64(n) + 1
	}

	res := &ProfileResult{Kernel: k.Name}

	// Variant A: static weights, which is the select scheme's post-pass
	// (the facade seeds the search with 1 too).
	staticAsn := cloneAssignment(asn)
	gs := adjacency.BuildReg(alloc, func(r ir.Reg) int { return staticAsn.Color[r] }, cfg.RegN)
	ps := remap.Auto(gs, remap.Options{RegN: cfg.RegN, DiffN: cfg.DiffN, Restarts: cfg.Restarts, Seed: 1, Workers: 1})
	permute(staticAsn, ps.Perm)
	diffsel.Refine(alloc, staticAsn, params)
	sets, cycles, err := encodeAndRun(mach, k, alloc, staticAsn, cfg)
	if err != nil {
		return nil, err
	}
	res.StaticSets, res.StaticCycles = sets, cycles

	// Variant B: profile weights.
	profAsn := cloneAssignment(asn)
	gp := adjacency.BuildRegProfile(alloc, func(r ir.Reg) int { return profAsn.Color[r] }, cfg.RegN, freq)
	pp := remap.Auto(gp, remap.Options{RegN: cfg.RegN, DiffN: cfg.DiffN, Restarts: cfg.Restarts, Seed: 1, Workers: 1})
	permute(profAsn, pp.Perm)
	diffsel.RefineProfile(alloc, profAsn, params, freq)
	sets, cycles, err = encodeAndRun(mach, k, alloc, profAsn, cfg)
	if err != nil {
		return nil, err
	}
	res.ProfileSets, res.ProfileCycles = sets, cycles
	return res, nil
}

func cloneAssignment(asn *regalloc.Assignment) *regalloc.Assignment {
	c := *asn
	c.Color = append([]int(nil), asn.Color...)
	return &c
}

func permute(asn *regalloc.Assignment, perm []int) {
	for v, c := range asn.Color {
		if c >= 0 {
			asn.Color[v] = perm[c]
		}
	}
}

// encodeAndRun encodes a clone of alloc under asn, applies the sets,
// simulates, and returns executed set count and cycles.
func encodeAndRun(mach *pipeline.Machine, k *workloads.Kernel, alloc *ir.Func, asn *regalloc.Assignment, cfg LowEndConfig) (uint64, uint64, error) {
	dcfg := diffenc.Config{RegN: cfg.RegN, DiffN: cfg.DiffN}
	regOf := func(r ir.Reg) int { return asn.Color[r] }
	work := alloc.Clone()
	enc, err := diffenc.Encode(work, regOf, dcfg)
	if err != nil {
		return 0, 0, err
	}
	if err := diffenc.Check(work, regOf, dcfg, enc); err != nil {
		return 0, 0, err
	}
	enc.ApplyToIR(work)
	_, st, err := mach.Run(work, asn, pipeline.RunOptions{
		Args: k.Args, OrigParams: k.F.Params, Mem: k.Mem,
	})
	if err != nil {
		return 0, 0, err
	}
	return st.SetLastRegs, st.Cycles, nil
}

// WriteProfileGuided renders the ablation.
func WriteProfileGuided(w io.Writer, rows []ProfileResult) {
	fmt.Fprintln(w, "Ablation (§4): static vs profile-guided adjacency weights (executed set_last_reg)")
	t := &table{header: []string{"kernel", "static sets", "profile sets", "static cycles", "profile cycles"}}
	var ss, ps uint64
	for _, r := range rows {
		t.add(r.Kernel, fmt.Sprint(r.StaticSets), fmt.Sprint(r.ProfileSets),
			fmt.Sprint(r.StaticCycles), fmt.Sprint(r.ProfileCycles))
		ss += r.StaticSets
		ps += r.ProfileSets
	}
	t.add("total", fmt.Sprint(ss), fmt.Sprint(ps), "", "")
	t.write(w)
}
