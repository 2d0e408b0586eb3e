// Package difftest is the semantic-equivalence oracle: it runs the
// original (virtual-register) function and the allocated, differentially
// encoded program under the reference interpreter (internal/interp) and
// compares their observable traces. Equal traces mean the compile
// preserved the program's meaning; the first divergence is reported
// with the event, halt state, or return value that differs.
//
// Decoding a differential program is inherently dynamic: each operand
// field holds a difference against the register accessed previously on
// the *executed path*, so the register a field names depends on how
// control flow reached it. A static reconstruction is therefore
// impossible in general — the StreamDecoder here plugs into the
// interpreter's fetch loop (interp.Resolver) and decodes each
// instruction as it is fetched, exactly as the hardware of §2 would:
// per-class last_reg state, reserved codes bypassing the adders, and
// set_last_reg instructions applied at their decode delays, all in
// diffenc.Decoder, the one decode rule diffenc.Check also runs on.
//
// Every decoded field is additionally checked against the register the
// allocator assigned; a mismatch is reported immediately rather than
// waiting for the wrong value to surface in the trace, so encoding bugs
// fail with the exact instruction and field that decoded wrong.
package difftest

import (
	"fmt"

	"diffra/internal/diffenc"
	"diffra/internal/ir"
)

// Model selects the hardware decode implementation. The two must be
// observationally identical; the oracle runs both so a divergence
// between them is itself a reported bug.
type Model int

const (
	// Sequential decodes one field at a time, each result feeding the
	// next field's adder (diffenc.Decoder.DecodeInstr).
	Sequential Model = iota
	// Parallel decodes all fields of an instruction in one step with
	// prefix modulo adders (diffenc.Decoder.DecodeInstrParallel).
	Parallel
)

// String names the model for reports.
func (m Model) String() string {
	if m == Parallel {
		return "parallel"
	}
	return "sequential"
}

// instrCode is the static per-instruction slice of the code stream:
// one code per register field in the configured access order, the
// field classes (known to hardware from the opcode, §9.1), and the
// registers the allocator expects each field to decode to.
type instrCode struct {
	codes   []int
	classes []int
	expect  []int
}

// StreamDecoder decodes an allocated, encoded function instruction by
// instruction as the interpreter fetches it, through one
// diffenc.Decoder. It implements interp.Resolver.
type StreamDecoder struct {
	cfg    diffenc.Config
	model  Model
	dec    *diffenc.Decoder
	static map[*ir.Instr]*instrCode
}

// NewStreamDecoder prepares a decoder for f (the function *after*
// ApplyToIR inserted the planned set_last_reg instructions). codes is
// the encoder's code stream, aligned with the function's register
// fields in block order — set_last_reg contributes no fields, so the
// alignment computed on the pre-insertion function still holds. regOf
// maps each operand to its machine register (the allocation the stream
// must reproduce).
func NewStreamDecoder(f *ir.Func, regOf func(ir.Reg) int, cfg diffenc.Config, codes []int, model Model) (*StreamDecoder, error) {
	dec, err := diffenc.NewDecoder(cfg)
	if err != nil {
		return nil, err
	}
	d := &StreamDecoder{
		cfg:    cfg,
		model:  model,
		dec:    dec,
		static: make(map[*ir.Instr]*instrCode),
	}
	ci := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpSetLastReg {
				continue
			}
			if _, dup := d.static[in]; dup {
				return nil, fmt.Errorf("difftest: instruction %q appears twice in %s", in, f.Name)
			}
			fields := cfg.FieldsOf(in)
			if ci+len(fields) > len(codes) {
				return nil, fmt.Errorf("difftest: code stream too short for %s (%d codes)", f.Name, len(codes))
			}
			ic := &instrCode{
				codes:   codes[ci : ci+len(fields)],
				classes: make([]int, len(fields)),
				expect:  make([]int, len(fields)),
			}
			for k, vr := range fields {
				r := regOf(vr)
				ic.expect[k] = r
				ic.classes[k] = cfg.Class(r)
			}
			ci += len(fields)
			d.static[in] = ic
		}
	}
	if ci != len(codes) {
		return nil, fmt.Errorf("difftest: code stream has %d codes beyond %s's fields", len(codes)-ci, f.Name)
	}
	return d, nil
}

// Resolve decodes one fetched instruction. A set_last_reg fetch hands
// its value and delay to the decoder and resolves to no registers;
// every other instruction's fields are decoded from its static codes
// under the current dynamic state.
func (d *StreamDecoder) Resolve(in *ir.Instr) (uses, defs []int, err error) {
	if in.Op == ir.OpSetLastReg {
		d.dec.SetLastRegDelayed(int(in.Imm), int(in.Imm2))
		return nil, nil, nil
	}
	ic := d.static[in]
	if ic == nil {
		return nil, nil, fmt.Errorf("difftest: fetched instruction %q is not in the decoded function", in)
	}
	var regs []int
	if d.model == Parallel {
		regs, err = d.dec.DecodeInstrParallel(ic.codes, ic.classes)
	} else {
		regs, err = d.dec.DecodeInstr(ic.codes, ic.classes)
	}
	if err != nil {
		return nil, nil, err
	}
	for k, r := range regs {
		if r != ic.expect[k] {
			return nil, nil, fmt.Errorf("difftest: %q field %d decoded R%d, allocation says R%d (%s model)",
				in, k, r, ic.expect[k], d.model)
		}
	}
	if d.cfg.DstFirst {
		return regs[len(in.Defs):], regs[:len(in.Defs)], nil
	}
	return regs[:len(in.Uses)], regs[len(in.Uses):], nil
}
