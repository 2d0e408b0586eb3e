// Package encode models the binary layout of compiled functions: the
// address and size of every instruction, the total code size, and the
// bit-level composition of the encoding. The I-cache model consumes
// the addresses; the code-size comparison of the paper's Figure 13 and
// Table 3 consumes the totals.
//
// The machine follows the paper's low-end target (§10.1), a THUMB-like
// fixed-width ISA: every instruction occupies the same number of
// bytes, and differential encoding changes how many registers the
// fixed register fields can address — not the instruction width. Code
// size therefore varies with instruction count (spills removed versus
// set_last_reg instructions added), exactly as in the paper.
package encode

import (
	"diffra/internal/ir"
)

// Model describes the binary instruction format.
type Model struct {
	// InstrBytes is the fixed instruction width (2 for the THUMB-like
	// low-end machine, 4 for the VLIW operations).
	InstrBytes int
	// OpcodeBits, ImmBits and FieldBits describe the bit budget inside
	// an instruction word for the bit-composition statistics.
	OpcodeBits int
	ImmBits    int
	FieldBits  int
}

// Thumb16 is the low-end configuration: 16-bit instructions, 3-bit
// register fields (direct: 8 registers; differential: DiffN=8 of
// RegN=12, §10.1).
func Thumb16() Model {
	return Model{InstrBytes: 2, OpcodeBits: 6, ImmBits: 5, FieldBits: 3}
}

// RISC32 is a 32-bit RISC configuration for the VLIW machine model
// (32 architected registers: 5-bit fields under direct encoding).
func RISC32() Model {
	return Model{InstrBytes: 4, OpcodeBits: 8, ImmBits: 12, FieldBits: 5}
}

// Layout is the placed code of one function.
type Layout struct {
	Model Model
	// Addr[i] is the byte address of the i-th instruction in block
	// layout order (the flat index interp.Step reports).
	Addr []uint64
	// Size is the total code size in bytes.
	Size uint64
}

// Place assigns consecutive addresses to the function's instructions
// in block layout order, starting at base.
func Place(f *ir.Func, m Model, base uint64) *Layout {
	l := &Layout{Model: m, Addr: make([]uint64, f.NumInstrs())}
	for i := range l.Addr {
		l.Addr[i] = base + uint64(i*m.InstrBytes)
	}
	l.Size = uint64(len(l.Addr) * m.InstrBytes)
	return l
}

// CodeBytes returns the total code size of f under the model: fixed
// width times instruction count.
func CodeBytes(f *ir.Func, m Model) int {
	return f.NumInstrs() * m.InstrBytes
}

// BitStats decomposes the code into opcode, register-field and
// immediate bits, supporting the paper's §1 observation that register
// fields take roughly a quarter of the binary (28% of Alpha, 25% of
// ARM). fieldBits is RegW for direct encoding or DiffW for
// differential encoding.
type BitStats struct {
	Instrs    int
	Opcode    int
	RegFields int
	Imm       int
}

// Total returns the total encoded bits.
func (s BitStats) Total() int { return s.Opcode + s.RegFields + s.Imm }

// RegFieldShare is the fraction of bits spent on register fields.
func (s BitStats) RegFieldShare() float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return float64(s.RegFields) / float64(t)
}

// Bits computes the bit decomposition of f with the given per-field
// width.
func Bits(f *ir.Func, m Model, fieldBits int) BitStats {
	var s BitStats
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			s.Instrs++
			s.Opcode += m.OpcodeBits
			s.RegFields += len(in.RegFields()) * fieldBits
			switch in.Op {
			case ir.OpLI, ir.OpLoad, ir.OpStore, ir.OpSpillLoad, ir.OpSpillStore, ir.OpSetLastReg:
				s.Imm += m.ImmBits
			}
		}
	}
	return s
}
