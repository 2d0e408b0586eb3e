package ir

import "fmt"

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
	switch in.Op {
	case OpLI:
		return fmt.Sprintf("v%d = li %d", in.Defs[0], in.Imm)
	case OpLoad:
		return fmt.Sprintf("v%d = load v%d, %d", in.Defs[0], in.Uses[0], in.Imm)
	case OpStore:
		return fmt.Sprintf("store v%d, v%d, %d", in.Uses[0], in.Uses[1], in.Imm)
	case OpSpillLoad:
		return fmt.Sprintf("v%d = spill_load %d", in.Defs[0], in.Imm)
	case OpSpillStore:
		return fmt.Sprintf("spill_store v%d, %d", in.Uses[0], in.Imm)
	case OpSetLastReg:
		if in.Imm2 >= 0 {
			return fmt.Sprintf("set_last_reg %d, %d", in.Imm, in.Imm2)
		}
		return fmt.Sprintf("set_last_reg %d", in.Imm)
	case OpCall:
		s := ""
		if len(in.Defs) > 0 {
			s = fmt.Sprintf("v%d = ", in.Defs[0])
		}
		s += "call " + in.Sym
		for _, u := range in.Uses {
			s += fmt.Sprintf(", v%d", u)
		}
		return s
	case OpRet:
		if len(in.Uses) > 0 {
			return fmt.Sprintf("ret v%d", in.Uses[0])
		}
		return "ret"
	}
	s := ""
	if len(in.Defs) > 0 {
		s = fmt.Sprintf("v%d = ", in.Defs[0])
	}
	s += in.Op.String()
	for i, u := range in.Uses {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf(" v%d", u)
	}
	return s
}
