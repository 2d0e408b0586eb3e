// Package interp gives the IR its meaning. A Machine binds a
// function's arguments through the calling convention and executes one
// instruction per Step: arithmetic, memory over a flat word-addressed
// store, branches, and calls resolved by deterministic intrinsic
// stubs. It is the only code in the module that executes IR, and two
// drivers run it:
//
//   - Run records everything observable about a run as a Trace (the
//     output events, the return value, the halt state). It is the
//     reference behind the semantic-equivalence oracle
//     (internal/difftest): two runs are semantically equivalent exactly
//     when their Traces are equal.
//   - internal/pipeline charges cycles over the same steps. Each Step
//     reports the instruction, its place in the code layout, the data
//     address it touched and where control went, which is everything a
//     timing model needs, so the simulator and the oracle cannot
//     disagree about what a program computes.
//
// The same function can be run three ways, which is what makes
// differential testing possible:
//
//   - on virtual registers (no assignment): the pre-allocation
//     reference semantics;
//   - through an allocation's colors (RegOf): the allocated program as
//     the register allocator intended it;
//   - through a Resolver: operand registers are produced per fetch by
//     an external decoder — internal/difftest plugs the differential
//     decode models in here, so the program executes exactly what the
//     encoded code stream says, not what the allocator meant.
//
// Division by zero yields 0, and shift counts are masked to 6 bits.
package interp

import (
	"fmt"

	"diffra/internal/ir"
)

// SpillBase is the start of the spill-slot region in the data address
// space. Spill traffic shares the data memory (and a simulator's
// D-cache) with program data, as on a real machine; addresses at or
// above it are allocation artifacts, not program memory, so stores
// there are never observable events.
const SpillBase = int64(1) << 28

// Resolver produces the machine register numbers for one fetched
// instruction. It is called once per dynamic fetch, in program order,
// for every instruction — including ir.OpSetLastReg, whose fetch the
// resolver needs to update decoder state (it returns empty slices).
// uses[i] and defs[i] index the machine register file for in.Uses[i]
// and in.Defs[i].
type Resolver interface {
	Resolve(in *ir.Instr) (uses, defs []int, err error)
}

// Options configures a run.
type Options struct {
	// Args are the argument values, one per ORIGINAL parameter of the
	// pre-allocation function, in order. OrigParams lists those
	// original parameter registers; entries present in StackParams
	// arrive in their spill slots, the rest bind to f.Params in order.
	Args       []int64
	OrigParams []ir.Reg
	// StackParams maps spilled parameter vregs to their stack slots
	// (regalloc.Assignment.StackParams).
	StackParams map[ir.Reg]int64
	// ArgLive, when non-nil, flags positionally which original
	// parameters' incoming values are observable (see
	// liveness.LiveParams on the SOURCE function). Dead parameters are
	// not bound: an allocator may give a dead parameter the same
	// machine register as a live one — a value nobody reads interferes
	// with nothing — so binding it would clobber the live argument.
	// nil binds every argument (correct when all parameters are live,
	// and always correct in the virtual-register domain).
	ArgLive []bool
	// Mem pre-initializes data memory (word addressed, as laid out by
	// internal/workloads).
	Mem map[int64]int64
	// NumRegs sizes the register file (0: f.NumRegs()).
	NumRegs int
	// RegOf maps an operand vreg to its register-file index (nil:
	// identity — run on virtual registers). It also binds parameters,
	// which are fixed by the calling convention, not by decode.
	RegOf func(ir.Reg) int
	// Resolver, when non-nil, overrides RegOf for instruction operands:
	// every fetch asks the resolver for the registers to access.
	// Parameters still bind through RegOf.
	Resolver Resolver
	// MaxSteps bounds Run (0: 10 million). Exhausting the budget is
	// not an error: the run halts with Trace.Halt == HaltBudget, and
	// the truncated trace is still comparable — two equivalent programs
	// produce identical prefixes.
	MaxSteps uint64
	// MaxEvents bounds the number of events Run retains verbatim in
	// Trace.Events (0: 4096). Beyond it, events still feed the trace
	// hash and counts, so equality checking remains exact.
	MaxEvents int
}

// Step is what one executed instruction did: everything a timing
// model charges for.
type Step struct {
	In *ir.Instr
	// Block is the block In issued from. Index is In's position in
	// block layout order, the order the pipeline model assigns fetch
	// addresses in.
	Block *ir.Block
	Index int
	// Mem says In accessed data memory (a load, store or spill op), at
	// data address Addr.
	Mem  bool
	Addr int64
	// Succ is the index of the successor of Block that control moved
	// to, or -1 when execution continues inside Block.
	Succ int
	// Done says In was a ret; Ret is the value it returned (0 for a
	// bare ret).
	Done bool
	Ret  int64
}

// Machine executes one function an instruction at a time. It holds the
// architectural state (register file, data memory, program counter)
// and nothing about timing.
type Machine struct {
	f    *ir.Func
	regs []int64
	mem  map[int64]int64
	res  Resolver
	// Without a Resolver, operand registers are resolved once through
	// RegOf: the instruction at flat index i reads its uses, then its
	// defs, from opnd[opStart[i]:].
	opnd    []int
	opStart []int
	// blockStart[b] is the flat index of block b's first instruction.
	blockStart []int
	b          *ir.Block
	ii         int
	step       Step    // the report Step returns
	tr         *Trace  // nil: events are not recorded
	args       []int64 // call-argument scratch
}

// New binds opts.Args into a fresh machine state for f, positioned at
// the first instruction of the entry block.
func New(f *ir.Func, opts Options) (*Machine, error) {
	entry := f.Entry()
	if entry == nil {
		return nil, fmt.Errorf("interp: %s has no blocks", f.Name)
	}
	nregs := opts.NumRegs
	if nregs == 0 {
		nregs = f.NumRegs()
	}
	regOf := opts.RegOf
	if regOf == nil {
		regOf = func(r ir.Reg) int { return int(r) }
	}
	m := &Machine{
		f:    f,
		regs: make([]int64, nregs),
		mem:  make(map[int64]int64, len(opts.Mem)+64),
		res:  opts.Resolver,
		b:    entry,
	}
	for k, v := range opts.Mem {
		m.mem[k] = v
	}
	if err := m.bind(opts, regOf); err != nil {
		return nil, err
	}

	m.blockStart = make([]int, len(f.Blocks))
	n, nopnd := 0, 0
	for i, b := range f.Blocks {
		m.blockStart[i] = n
		n += len(b.Instrs)
		for _, in := range b.Instrs {
			nopnd += len(in.Uses) + len(in.Defs)
		}
	}
	if m.res == nil {
		m.opStart = make([]int, 0, n+1)
		m.opnd = make([]int, 0, nopnd)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				m.opStart = append(m.opStart, len(m.opnd))
				for _, r := range in.Uses {
					m.opnd = append(m.opnd, regOf(r))
				}
				for _, r := range in.Defs {
					m.opnd = append(m.opnd, regOf(r))
				}
			}
		}
		m.opStart = append(m.opStart, len(m.opnd))
	}
	return m, nil
}

// bind writes the arguments into registers and stack slots through the
// calling convention.
func (m *Machine) bind(opts Options, regOf func(ir.Reg) int) error {
	f := m.f
	origParams := opts.OrigParams
	if origParams == nil {
		origParams = f.Params
	}
	if len(opts.Args) != len(origParams) {
		return fmt.Errorf("interp: %d args for %d params", len(opts.Args), len(origParams))
	}
	if opts.ArgLive != nil && len(opts.ArgLive) != len(origParams) {
		return fmt.Errorf("interp: %d ArgLive flags for %d params", len(opts.ArgLive), len(origParams))
	}
	next := 0
	for i, p := range origParams {
		live := opts.ArgLive == nil || opts.ArgLive[i]
		if slot, ok := opts.StackParams[p]; ok {
			if live {
				m.mem[SpillBase+slot] = opts.Args[i]
			}
			continue
		}
		if next >= len(f.Params) {
			return fmt.Errorf("interp: parameter binding ran out of register params")
		}
		rp := f.Params[next]
		next++
		if !live {
			// Dead parameter: still occupies a f.Params slot, but its
			// value must not reach the register file (its color may be
			// shared with a live parameter, or be -1 entirely).
			continue
		}
		c := regOf(rp)
		if c < 0 || c >= len(m.regs) {
			return fmt.Errorf("interp: param v%d maps to register %d outside [0,%d)", rp, c, len(m.regs))
		}
		m.regs[c] = opts.Args[i]
	}
	return nil
}

// operands returns the register-file indices in reads and writes.
func (m *Machine) operands(in *ir.Instr, flat int) (uses, defs []int, err error) {
	if m.res != nil {
		uses, defs, err = m.res.Resolve(in)
		if err != nil {
			return nil, nil, err
		}
		if len(uses) != len(in.Uses) || len(defs) != len(in.Defs) {
			return nil, nil, fmt.Errorf("resolver returned %d uses / %d defs, want %d / %d",
				len(uses), len(defs), len(in.Uses), len(in.Defs))
		}
	} else {
		o := m.opnd[m.opStart[flat]:m.opStart[flat+1]]
		uses, defs = o[:len(in.Uses)], o[len(in.Uses):]
	}
	for _, c := range uses {
		if c < 0 || c >= len(m.regs) {
			return nil, nil, fmt.Errorf("use register %d outside [0,%d)", c, len(m.regs))
		}
	}
	for _, c := range defs {
		if c < 0 || c >= len(m.regs) {
			return nil, nil, fmt.Errorf("def register %d outside [0,%d)", c, len(m.regs))
		}
	}
	return uses, defs, nil
}

// Step executes the next instruction and reports what it did; the
// report is valid until the next call. The only errors are structural
// (malformed IR, resolver failure, register index out of range).
func (m *Machine) Step() (*Step, error) {
	b, ii := m.b, m.ii
	if ii >= len(b.Instrs) {
		return nil, fmt.Errorf("interp: fell off block %s", b.Name)
	}
	in := b.Instrs[ii]
	s := &m.step
	*s = Step{In: in, Block: b, Index: m.blockStart[b.Index] + ii, Succ: -1}
	uses, defs, err := m.operands(in, s.Index)
	if err != nil {
		return nil, fmt.Errorf("interp: %s/%s instr %d (%s): %w", m.f.Name, b.Name, ii, in, err)
	}
	regs := m.regs
	get := func(i int) int64 { return regs[uses[i]] }
	set := func(v int64) { regs[defs[0]] = v }

	switch in.Op {
	case ir.OpAdd:
		set(get(0) + get(1))
	case ir.OpSub:
		set(get(0) - get(1))
	case ir.OpMul:
		set(get(0) * get(1))
	case ir.OpDiv:
		if d := get(1); d != 0 {
			set(get(0) / d)
		} else {
			set(0)
		}
	case ir.OpRem:
		if d := get(1); d != 0 {
			set(get(0) % d)
		} else {
			set(0)
		}
	case ir.OpAnd:
		set(get(0) & get(1))
	case ir.OpOr:
		set(get(0) | get(1))
	case ir.OpXor:
		set(get(0) ^ get(1))
	case ir.OpShl:
		set(get(0) << (uint64(get(1)) & 63))
	case ir.OpShr:
		set(int64(uint64(get(0)) >> (uint64(get(1)) & 63)))
	case ir.OpNeg:
		set(-get(0))
	case ir.OpNot:
		set(^get(0))
	case ir.OpCmpEQ:
		set(b2i(get(0) == get(1)))
	case ir.OpCmpNE:
		set(b2i(get(0) != get(1)))
	case ir.OpCmpLT:
		set(b2i(get(0) < get(1)))
	case ir.OpCmpLE:
		set(b2i(get(0) <= get(1)))
	case ir.OpMov:
		set(get(0))
	case ir.OpLI:
		set(in.Imm)
	case ir.OpLoad:
		s.Mem, s.Addr = true, get(0)+in.Imm
		set(m.mem[s.Addr])
	case ir.OpStore:
		s.Mem, s.Addr = true, get(1)+in.Imm
		m.mem[s.Addr] = get(0)
		if m.tr != nil {
			m.tr.store(s.Addr, get(0))
		}
	case ir.OpSpillLoad:
		s.Mem, s.Addr = true, SpillBase+in.Imm
		set(m.mem[s.Addr])
	case ir.OpSpillStore:
		// Spill traffic is an allocation artifact, not program
		// output: it writes memory but emits no event.
		s.Mem, s.Addr = true, SpillBase+in.Imm
		m.mem[s.Addr] = get(0)
	case ir.OpSetLastReg:
		// Consumed at decode (a Resolver saw the fetch); no
		// architectural effect.
	case ir.OpJmp:
		s.Succ = 0
	case ir.OpBr:
		s.Succ = succ(get(0) != 0)
	case ir.OpBEQ:
		s.Succ = succ(get(0) == get(1))
	case ir.OpBNE:
		s.Succ = succ(get(0) != get(1))
	case ir.OpBLT:
		s.Succ = succ(get(0) < get(1))
	case ir.OpBLE:
		s.Succ = succ(get(0) <= get(1))
	case ir.OpRet:
		s.Done = true
		if len(uses) > 0 {
			s.Ret = get(0)
		}
	case ir.OpCall:
		args := m.args[:0]
		for _, u := range uses {
			args = append(args, regs[u])
		}
		m.args = args
		ret := Intrinsic(in.Sym, args)
		if m.tr != nil {
			m.tr.call(in.Sym, args, ret)
		}
		if len(defs) > 0 {
			set(ret)
		}
	default:
		return nil, fmt.Errorf("interp: cannot execute %s", in)
	}

	if s.Succ < 0 {
		m.ii++
		return s, nil
	}
	if s.Succ >= len(b.Succs) {
		return nil, fmt.Errorf("interp: %s/%s: branch to missing successor %d", m.f.Name, b.Name, s.Succ)
	}
	m.b, m.ii = b.Succs[s.Succ], 0
	return s, nil
}

// Run executes f and returns its observable trace. The only errors are
// structural; semantic outcomes — including budget exhaustion — land
// in the Trace.
func Run(f *ir.Func, opts Options) (*Trace, error) {
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 10_000_000
	}
	maxEvents := opts.MaxEvents
	if maxEvents == 0 {
		maxEvents = 4096
	}
	m, err := New(f, opts)
	if err != nil {
		return nil, err
	}
	m.tr = &Trace{max: maxEvents}
	for m.tr.Steps < maxSteps {
		s, err := m.Step()
		if err != nil {
			return nil, err
		}
		m.tr.Steps++
		if s.Done {
			m.tr.Halt, m.tr.Ret = HaltRet, s.Ret
			return m.tr, nil
		}
	}
	m.tr.Halt = HaltBudget
	return m.tr, nil
}

// succ picks a conditional branch's successor: 0 when taken, 1 when it
// falls through.
func succ(taken bool) int {
	if taken {
		return 0
	}
	return 1
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
