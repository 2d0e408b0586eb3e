// Package ir defines a small RISC-like three-address intermediate
// representation used throughout the differential register allocation
// study: virtual registers, instructions, basic blocks, functions, and
// the control-flow analyses (reverse postorder, dominators, natural
// loops) the register allocators depend on.
//
// The IR is deliberately not SSA: a virtual register may be defined
// several times, exactly as a live range looks to a Chaitin-style
// allocator after SSA destruction. Register allocation assigns each
// virtual register a machine register number; differential encoding
// then operates on the resulting register access sequence.
package ir

import "fmt"

// Op identifies an instruction opcode.
type Op uint8

// Opcode set. The machine is a generic load/store RISC: two-source
// arithmetic, immediate forms, loads and stores with a base register
// plus immediate offset, conditional branches that compare two
// registers, and calls following a conventional caller/callee-save
// split.
const (
	OpInvalid Op = iota

	// Arithmetic and logic, dst = src1 OP src2.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr

	// Unary, dst = OP src1.
	OpNeg
	OpNot

	// Comparisons, dst = (src1 REL src2) ? 1 : 0.
	OpCmpEQ
	OpCmpNE
	OpCmpLT
	OpCmpLE

	// Data movement.
	OpMov // dst = src1 (register copy; coalescing candidate)
	OpLI  // dst = Imm (load immediate)

	// Memory, address = src + Imm.
	OpLoad  // dst = mem[src1+Imm]
	OpStore // mem[src2+Imm] = src1 (value first, base second)

	// Control flow (block terminators except OpCall).
	OpBr   // if src1 != 0 goto succ[0] else succ[1]
	OpBEQ  // if src1 == src2 goto succ[0] else succ[1]
	OpBNE  // if src1 != src2 goto succ[0] else succ[1]
	OpBLT  // if src1 <  src2 goto succ[0] else succ[1]
	OpBLE  // if src1 <= src2 goto succ[0] else succ[1]
	OpJmp  // goto succ[0]
	OpRet  // return src1 (optional)
	OpCall // dst = call Sym(uses...)

	// Spill code. The stack/frame pointer is a special-purpose register
	// reserved outside the allocatable set (§9.2 of the paper), so spill
	// memory ops carry only the value register plus a slot immediate.
	OpSpillLoad  // dst = stack[Imm]
	OpSpillStore // stack[Imm] = src1

	// SetLastReg is the ISA extension from the paper (§2.3):
	// set_last_reg(value) / set_last_reg(value, delay). It is inserted
	// by the differential encoder, consumed at decode, and never enters
	// the execution pipeline. Imm holds the value, Imm2 the delay.
	OpSetLastReg

	numOps
)

// NumOps is the opcode-space size, for dense per-opcode tables
// (profilers, simulators) indexed by Op.
const NumOps = int(numOps)

// opInfo captures static operand shape for each opcode.
type opInfo struct {
	name   string
	nUses  int  // fixed number of register uses (-1: variadic, e.g. call)
	hasDef bool // defines Defs[0]
	hasImm bool
	term   bool // block terminator
	nSuccs int  // successors required when terminator (-1: any)
}

var opTable = [numOps]opInfo{
	OpInvalid:    {name: "invalid"},
	OpAdd:        {name: "add", nUses: 2, hasDef: true},
	OpSub:        {name: "sub", nUses: 2, hasDef: true},
	OpMul:        {name: "mul", nUses: 2, hasDef: true},
	OpDiv:        {name: "div", nUses: 2, hasDef: true},
	OpRem:        {name: "rem", nUses: 2, hasDef: true},
	OpAnd:        {name: "and", nUses: 2, hasDef: true},
	OpOr:         {name: "or", nUses: 2, hasDef: true},
	OpXor:        {name: "xor", nUses: 2, hasDef: true},
	OpShl:        {name: "shl", nUses: 2, hasDef: true},
	OpShr:        {name: "shr", nUses: 2, hasDef: true},
	OpNeg:        {name: "neg", nUses: 1, hasDef: true},
	OpNot:        {name: "not", nUses: 1, hasDef: true},
	OpCmpEQ:      {name: "cmpeq", nUses: 2, hasDef: true},
	OpCmpNE:      {name: "cmpne", nUses: 2, hasDef: true},
	OpCmpLT:      {name: "cmplt", nUses: 2, hasDef: true},
	OpCmpLE:      {name: "cmple", nUses: 2, hasDef: true},
	OpMov:        {name: "mov", nUses: 1, hasDef: true},
	OpLI:         {name: "li", nUses: 0, hasDef: true, hasImm: true},
	OpLoad:       {name: "load", nUses: 1, hasDef: true, hasImm: true},
	OpStore:      {name: "store", nUses: 2, hasImm: true},
	OpBr:         {name: "br", nUses: 1, term: true, nSuccs: 2},
	OpBEQ:        {name: "beq", nUses: 2, term: true, nSuccs: 2},
	OpBNE:        {name: "bne", nUses: 2, term: true, nSuccs: 2},
	OpBLT:        {name: "blt", nUses: 2, term: true, nSuccs: 2},
	OpBLE:        {name: "ble", nUses: 2, term: true, nSuccs: 2},
	OpJmp:        {name: "jmp", term: true, nSuccs: 1},
	OpRet:        {name: "ret", nUses: -1, term: true, nSuccs: 0},
	OpCall:       {name: "call", nUses: -1, hasDef: true},
	OpSpillLoad:  {name: "spill_load", nUses: 0, hasDef: true, hasImm: true},
	OpSpillStore: {name: "spill_store", nUses: 1, hasImm: true},
	OpSetLastReg: {name: "set_last_reg", hasImm: true},
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if o >= numOps {
		return fmt.Sprintf("op(%d)", uint8(o))
	}
	return opTable[o].name
}

// IsTerminator reports whether the opcode must end a basic block.
func (o Op) IsTerminator() bool { return opTable[o].term }

// HasDef reports whether the opcode defines a register.
func (o Op) HasDef() bool { return opTable[o].hasDef }

// NumUses returns the fixed register-use count, or -1 if variadic.
func (o Op) NumUses() int { return opTable[o].nUses }

// NumSuccs returns the successor count required by a terminator.
func (o Op) NumSuccs() int { return opTable[o].nSuccs }

// opByName resolves a mnemonic; used by the parser.
var opByName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for op := Op(1); op < numOps; op++ {
		m[opTable[op].name] = op
	}
	return m
}()
