package ir

import "strconv"

// Reg is a register operand. Before allocation it names a virtual
// register (live range); after allocation the assignment maps each Reg
// to a machine register number in [0, RegN).
type Reg int

// NoReg marks an absent register operand.
const NoReg Reg = -1

// Instr is a single three-address instruction. Defs and Uses hold
// register operands; Imm holds the immediate (offset for memory ops,
// constant for li, value for set_last_reg); Imm2 holds set_last_reg's
// optional decode delay (-1 when absent). Sym names a call target.
type Instr struct {
	Op   Op
	Defs []Reg
	Uses []Reg
	Imm  int64
	Imm2 int64
	Sym  string
}

// IsMove reports whether the instruction is a register-to-register
// copy, the coalescing candidate of Chaitin-style allocators.
func (in *Instr) IsMove() bool {
	return in.Op == OpMov && len(in.Defs) == 1 && len(in.Uses) == 1
}

// Clone returns a deep copy of the instruction.
func (in *Instr) Clone() *Instr {
	c := *in
	c.Defs = append([]Reg(nil), in.Defs...)
	c.Uses = append([]Reg(nil), in.Uses...)
	return &c
}

// RegFields returns the instruction's register operands in the nominal
// access order agreed between encoder and decoder (§2 of the paper):
// source operands first, in order, then the destination. set_last_reg
// contributes no register fields — its operand is an immediate consumed
// by the decoder.
func (in *Instr) RegFields() []Reg {
	if in.Op == OpSetLastReg {
		return nil
	}
	fields := make([]Reg, 0, len(in.Uses)+len(in.Defs))
	fields = append(fields, in.Uses...)
	fields = append(fields, in.Defs...)
	return fields
}

func (in *Instr) String() string {
	var buf [48]byte
	return string(in.appendTo(buf[:0]))
}

// appendTo appends the instruction's String form to b. It prints the
// operands the instruction has, so a malformed one (a def-less li, a
// load without its base) prints what is there instead of panicking;
// Verify's messages embed this form.
func (in *Instr) appendTo(b []byte) []byte {
	switch in.Op {
	case OpStore, OpSpillStore, OpSetLastReg, OpRet:
		// These forms print no def.
	default:
		if len(in.Defs) > 0 {
			b = append(appendReg(b, in.Defs[0]), " = "...)
		}
	}
	switch in.Op {
	case OpLI, OpLoad, OpStore, OpSpillLoad, OpSpillStore:
		// The form's uses, each followed by ", ", then the immediate.
		info := &opTable[in.Op]
		b = append(append(b, info.name...), ' ')
		for i, u := range in.Uses {
			if i == info.nUses {
				break
			}
			b = append(appendReg(b, u), ", "...)
		}
		return strconv.AppendInt(b, in.Imm, 10)
	case OpSetLastReg:
		b = strconv.AppendInt(append(b, "set_last_reg "...), in.Imm, 10)
		if in.Imm2 >= 0 {
			b = strconv.AppendInt(append(b, ", "...), in.Imm2, 10)
		}
		return b
	case OpCall:
		b = append(append(b, "call "...), in.Sym...)
		for _, u := range in.Uses {
			b = appendReg(append(b, ", "...), u)
		}
		return b
	case OpRet:
		b = append(b, "ret"...)
		if len(in.Uses) > 0 {
			b = appendReg(append(b, ' '), in.Uses[0])
		}
		return b
	}
	b = append(b, in.Op.String()...)
	for i, u := range in.Uses {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendReg(append(b, ' '), u)
	}
	return b
}
