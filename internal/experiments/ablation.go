package experiments

import (
	"fmt"
	"io"

	"diffra/internal/diffenc"
	"diffra/internal/diffsel"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/par"
	"diffra/internal/pipeline"
	"diffra/internal/regalloc"
	"diffra/internal/workloads"
)

// Ablations beyond the paper's headline figures, covering the design
// points its text discusses without evaluating:
//
//   - §8.2 selective enabling: differential encoding is turned on per
//     function only when the simulated benefit exceeds the set_last_reg
//     cost, falling back to the direct baseline otherwise;
//   - §9.4 access-order and last_reg-granularity alternatives:
//     dst-first field order and per-instruction last_reg update.

// SelectiveResult compares always-on differential encoding against
// §8.2's selective policy on one kernel.
type SelectiveResult struct {
	Kernel string
	// Cycles per policy.
	Baseline, Differential, Selective uint64
	// Enabled reports whether the selective policy kept differential
	// encoding on for this kernel.
	Enabled bool
}

// RunSelective evaluates §8.2 over the kernel suite: per kernel,
// compile both ways, simulate, and let the policy pick the faster.
// The selective policy can never lose to either fixed policy.
func RunSelective(cfg LowEndConfig) ([]SelectiveResult, error) {
	kernels := workloads.Kernels()
	out := make([]SelectiveResult, len(kernels))
	err := par.Map(cfg.Workers, len(kernels), func(i int) error {
		k := &kernels[i]
		mach, err := pipeline.New(pipeline.LowEnd())
		if err != nil {
			return err
		}
		base, err := runKernelScheme(mach, k, SchemeBaseline, cfg)
		if err != nil {
			return fmt.Errorf("%s/baseline: %w", k.Name, err)
		}
		diff, err := runKernelScheme(mach, k, SchemeSelect, cfg)
		if err != nil {
			return fmt.Errorf("%s/select: %w", k.Name, err)
		}
		r := SelectiveResult{
			Kernel:       k.Name,
			Baseline:     base.Cycles,
			Differential: diff.Cycles,
			Enabled:      diff.Cycles < base.Cycles,
		}
		r.Selective = r.Baseline
		if r.Enabled {
			r.Selective = r.Differential
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteSelective renders the §8.2 ablation.
func WriteSelective(w io.Writer, rows []SelectiveResult) {
	fmt.Fprintln(w, "Ablation (§8.2): selective enabling of differential encoding")
	t := &table{header: []string{"kernel", "baseline", "differential", "selective", "enabled"}}
	var b, d, s float64
	for _, r := range rows {
		t.add(r.Kernel, fmt.Sprint(r.Baseline), fmt.Sprint(r.Differential),
			fmt.Sprint(r.Selective), fmt.Sprint(r.Enabled))
		b += float64(r.Baseline)
		d += float64(r.Differential)
		s += float64(r.Selective)
	}
	t.add("total", f1(b), f1(d), f1(s), "")
	t.write(w)
}

// AlternativeResult reports the §9.4 encoding variants' set_last_reg
// counts on one kernel (select scheme, identical allocation inputs).
type AlternativeResult struct {
	Kernel string
	// Static set_last_reg counts per variant.
	SrcFirstPerField, DstFirstPerField, SrcFirstPerInstr int
}

// RunAlternatives measures the §9.4 design alternatives: for each
// kernel the function is allocated once with differential select and
// then encoded under the three variants, so the counts isolate the
// encoding rule itself.
func RunAlternatives(cfg LowEndConfig) ([]AlternativeResult, error) {
	kernels := workloads.Kernels()
	out := make([]AlternativeResult, len(kernels))
	err := par.Map(cfg.Workers, len(kernels), func(i int) error {
		k := &kernels[i]
		alloc, asn, err := irc.Allocate(k.F, irc.Options{
			K:             cfg.RegN,
			PickerFactory: diffsel.NewFactory(diffsel.Params{RegN: cfg.RegN, DiffN: cfg.DiffN}),
		})
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		if err := regalloc.Verify(alloc, asn); err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		regOf := func(r ir.Reg) int { return asn.Color[r] }
		count := func(c diffenc.Config) (int, error) {
			enc, err := diffenc.Encode(alloc, regOf, c)
			if err != nil {
				return 0, err
			}
			if err := diffenc.Check(alloc, regOf, c, enc); err != nil {
				return 0, err
			}
			return enc.Cost(), nil
		}
		r := AlternativeResult{Kernel: k.Name}
		base := diffenc.Config{RegN: cfg.RegN, DiffN: cfg.DiffN}
		if r.SrcFirstPerField, err = count(base); err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		dst := base
		dst.DstFirst = true
		if r.DstFirstPerField, err = count(dst); err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		pi := base
		pi.PerInstruction = true
		if r.SrcFirstPerInstr, err = count(pi); err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteAlternatives renders the §9.4 ablation.
func WriteAlternatives(w io.Writer, rows []AlternativeResult) {
	fmt.Fprintln(w, "Ablation (§9.4): set_last_reg count per encoding variant")
	t := &table{header: []string{"kernel", "src-first/field", "dst-first/field", "src-first/instr"}}
	var a, b, c int
	for _, r := range rows {
		t.add(r.Kernel, fmt.Sprint(r.SrcFirstPerField), fmt.Sprint(r.DstFirstPerField), fmt.Sprint(r.SrcFirstPerInstr))
		a += r.SrcFirstPerField
		b += r.DstFirstPerField
		c += r.SrcFirstPerInstr
	}
	t.add("total", fmt.Sprint(a), fmt.Sprint(b), fmt.Sprint(c))
	t.write(w)
}
