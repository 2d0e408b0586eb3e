package difftest

import (
	"errors"
	"fmt"

	"diffra"
	"diffra/internal/diffenc"
	"diffra/internal/interp"
	"diffra/internal/ir"
	"diffra/internal/liveness"
	"diffra/internal/regalloc"
)

// RunSpec is one input to run a function on: argument values, initial
// data memory, and a step budget (0: interp's default). The same spec
// drives the reference run and every allocated/decoded run.
type RunSpec struct {
	Args     []int64
	Mem      map[int64]int64
	MaxSteps uint64
	// ArgLive, when non-nil, is liveness.LiveParams of the SOURCE
	// function, positionally for its params. Sweeps that check one
	// source under many geometries set it once so CompareCompiled does
	// not re-run the liveness analysis per compile; nil computes it.
	ArgLive []bool
}

// Models lists the decode models the oracle exercises.
var Models = []Model{Sequential, Parallel}

// DefaultSpec derives a deterministic input for a function whose real
// inputs are unknown — the stand-in workload for self-check mode.
// Small mixed-sign arguments, a seeded page of memory, and a step
// budget: a non-terminating input truncates both runs at the same
// step, so the traces stay comparable (interp.HaltBudget).
func DefaultSpec(f *ir.Func) RunSpec {
	spec := RunSpec{Mem: map[int64]int64{}, MaxSteps: 200_000}
	for i := range f.Params {
		a := int64(7*i + 3)
		if i%2 == 1 {
			a = -a
		}
		spec.Args = append(spec.Args, a)
	}
	for a := int64(0); a < 64; a += 4 {
		spec.Mem[a] = 3*a - 61
	}
	return spec
}

// Reference computes the virtual-register trace of the original
// (pre-allocation) function: the semantics every compile of it must
// reproduce.
func Reference(f *ir.Func, spec RunSpec) (*interp.Trace, error) {
	return interp.Run(f, interp.Options{Args: spec.Args, Mem: spec.Mem, MaxSteps: spec.MaxSteps})
}

// CheckCompiled verifies one facade compile end to end: the reference
// trace of src must equal the allocated program's trace run through the
// allocation directly, and — for differential schemes — through both
// stream-decode models. A nil error means the compile is semantically
// equivalent to the source on this input.
func CheckCompiled(src *ir.Func, res *diffra.Result, spec RunSpec) error {
	ref, err := Reference(src, spec)
	if err != nil {
		return fmt.Errorf("difftest: reference run: %w", err)
	}
	return CompareCompiled(src, res, ref, spec)
}

// CompareCompiled is CheckCompiled against a precomputed reference
// trace, so sweeps can amortize the reference run across geometries.
func CompareCompiled(src *ir.Func, res *diffra.Result, ref *interp.Trace, spec RunSpec) error {
	asn := res.Assignment
	argLive := spec.ArgLive
	if argLive == nil {
		argLive = liveness.LiveParams(src)
	}
	base := interp.Options{
		Args:        spec.Args,
		OrigParams:  src.Params,
		StackParams: asn.StackParams,
		Mem:         spec.Mem,
		NumRegs:     asn.K,
		RegOf:       asn.RegOf,
		MaxSteps:    spec.MaxSteps,
		// A dead parameter may legally share its machine register with
		// a live one (it interferes with nothing); liveness on the
		// SOURCE function decides which positional arguments bind.
		ArgLive: argLive,
	}
	// The allocation alone (registers straight from the colors):
	// separates allocator bugs from encoding bugs in the report.
	tr, err := interp.Run(res.F, base)
	if err != nil {
		return fmt.Errorf("difftest: allocated run: %w", err)
	}
	if msg := ref.Diff(tr, "reference", "allocated"); msg != "" {
		return errors.New("difftest: " + msg)
	}
	if res.Encoding == nil {
		return nil
	}
	for _, m := range Models {
		sd, err := NewStreamDecoder(res.F, base.RegOf, res.Encoding.Cfg, res.Encoding.Codes, m)
		if err != nil {
			return fmt.Errorf("difftest: %s decoder: %w", m, err)
		}
		o := base
		o.Resolver = sd
		dtr, err := interp.Run(res.F, o)
		if err != nil {
			return fmt.Errorf("difftest: %s-decoded run: %w", m, err)
		}
		if msg := ref.Diff(dtr, "reference", m.String()+"-decoded"); msg != "" {
			return errors.New("difftest: " + msg)
		}
	}
	return nil
}

// CheckEncoding exercises one encoding geometry in isolation: it
// re-encodes a clone of an already-allocated function under cfg (which
// may enable the §9 ablations — reserved registers, register classes,
// dst-first access order, per-instruction update), checks it, applies
// the planned sets, and compares the stream-decoded execution of both
// models against the direct-register execution of the same allocation.
// origParams are the pre-allocation parameters (the calling
// convention); allocated must be free of set_last_reg instructions
// (i.e. come from a non-differential compile such as Baseline).
func CheckEncoding(allocated *ir.Func, asn *regalloc.Assignment, origParams []ir.Reg, cfg diffenc.Config, spec RunSpec) error {
	base := interp.Options{
		Args:        spec.Args,
		OrigParams:  origParams,
		StackParams: asn.StackParams,
		Mem:         spec.Mem,
		NumRegs:     asn.K,
		RegOf:       asn.RegOf,
		MaxSteps:    spec.MaxSteps,
	}
	direct, err := interp.Run(allocated, base)
	if err != nil {
		return fmt.Errorf("difftest: direct run: %w", err)
	}
	return CompareEncoding(allocated, asn, origParams, cfg, spec, direct)
}

// CompareEncoding is CheckEncoding against a precomputed direct trace.
func CompareEncoding(allocated *ir.Func, asn *regalloc.Assignment, origParams []ir.Reg, cfg diffenc.Config, spec RunSpec, direct *interp.Trace) error {
	for _, b := range allocated.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpSetLastReg {
				return fmt.Errorf("difftest: %s already carries set_last_reg; re-encoding needs a clean allocation", allocated.Name)
			}
		}
	}
	regOf := asn.RegOf
	clone := allocated.Clone()
	enc, err := diffenc.Encode(clone, regOf, cfg)
	if err != nil {
		return fmt.Errorf("difftest: encode: %w", err)
	}
	if err := diffenc.Check(clone, regOf, cfg, enc); err != nil {
		return fmt.Errorf("difftest: check: %w", err)
	}
	enc.ApplyToIR(clone)
	for _, m := range Models {
		sd, err := NewStreamDecoder(clone, regOf, cfg, enc.Codes, m)
		if err != nil {
			return fmt.Errorf("difftest: %s decoder: %w", m, err)
		}
		o := interp.Options{
			Args:        spec.Args,
			OrigParams:  origParams,
			StackParams: asn.StackParams,
			Mem:         spec.Mem,
			NumRegs:     asn.K,
			RegOf:       regOf,
			Resolver:    sd,
			MaxSteps:    spec.MaxSteps,
		}
		dtr, err := interp.Run(clone, o)
		if err != nil {
			return fmt.Errorf("difftest: %s-decoded run: %w", m, err)
		}
		if msg := direct.Diff(dtr, "direct", m.String()+"-decoded"); msg != "" {
			return errors.New("difftest: " + msg)
		}
	}
	return nil
}
