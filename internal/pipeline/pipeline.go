// Package pipeline simulates a 5-stage in-order scalar processor — the
// paper's low-end evaluation machine (§10.1, an ARM/THUMB-like core
// modeled on SimpleScalar; see DESIGN.md's substitution table).
//
// It is a pure cost model. internal/interp executes the allocated
// function one instruction at a time (binding arguments, computing
// values, choosing branch directions), and the simulator charges each
// step:
//
//   - every instruction costs its latency (1 for simple ALU ops, more
//     for multiply/divide),
//   - instruction fetch goes through the I-cache at the address
//     encode.Place gives the instruction,
//   - loads and stores (including spill code) go through the D-cache
//     at the data address the step touched,
//   - taken branches and jumps pay a one-cycle redirect bubble,
//   - set_last_reg instructions are fetched and decoded but never enter
//     the execute stage (§2.3): they cost one decode slot plus fetch.
//
// Register operands resolve through the allocation's colors, so a
// miscolored program computes wrong values — executing through the
// machine register file doubles as a dynamic validation of the
// allocator — and a simulated run computes exactly what the oracle
// (internal/difftest) says the program computes.
package pipeline

import (
	"fmt"
	"sort"

	"diffra/internal/cache"
	"diffra/internal/encode"
	"diffra/internal/interp"
	"diffra/internal/ir"
	"diffra/internal/regalloc"
)

// Config describes the machine.
type Config struct {
	ICache cache.Config
	DCache cache.Config
	// Latency per opcode class.
	MulLat, DivLat int
	// BranchBubble is the redirect penalty for taken branches.
	BranchBubble int
	// LoadUseBubble is the extra cycle(s) a load costs even on a cache
	// hit: the classic load-use delay of a 5-stage in-order pipeline.
	LoadUseBubble int
	// MaxInstrs bounds execution (0: 50 million).
	MaxInstrs uint64
	// Model places the code (zero value: encode.Thumb16()).
	Model encode.Model
}

// LowEnd returns the Table-1-like configuration used by the low-end
// experiments: a 5-stage in-order core with small split caches.
func LowEnd() Config {
	return Config{
		ICache:        cache.Config{Size: 4096, LineSize: 32, Assoc: 2, MissPenalty: 20},
		DCache:        cache.Config{Size: 4096, LineSize: 32, Assoc: 2, MissPenalty: 20},
		MulLat:        3,
		DivLat:        12,
		BranchBubble:  1,
		LoadUseBubble: 1,
		Model:         encode.Thumb16(),
	}
}

// Stats is the outcome of a run.
type Stats struct {
	Cycles      uint64
	Instrs      uint64
	SetLastRegs uint64
	SpillOps    uint64
	MemOps      uint64
	// Branches and Taken count control transfers. Conditional branches
	// contribute to Branches always and to Taken when the branch is
	// taken; unconditional jumps contribute to both (they always pay
	// the redirect bubble).
	Branches uint64
	Taken    uint64
	ICache   cache.Stats
	DCache   cache.Stats
	// BlockCounts[i] is how many times block with Index i was entered:
	// an execution profile usable as adjacency edge weights (the §4
	// remark that "profile information could be incorporated to
	// improve the cost estimation").
	BlockCounts []uint64
	// BlockCycles[i] attributes cycles (including cache stalls and
	// branch bubbles) to the block the instruction issued from;
	// BlockIMisses/BlockDMisses attribute cache misses the same way.
	// Together with BlockCounts they are the per-block breakdown the
	// telemetry layer surfaces.
	BlockCycles  []uint64
	BlockIMisses []uint64
	BlockDMisses []uint64
	// OpCycles[op] / OpCounts[op] attribute cycles and executions per
	// opcode, indexed by ir.Op (length ir.NumOps).
	OpCycles []uint64
	OpCounts []uint64
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instrs)
}

// String is a one-line run summary for examples and CLI output.
func (s Stats) String() string {
	return fmt.Sprintf("cycles=%d instrs=%d cpi=%.2f branches=%d taken=%d mem=%d spill=%d slr=%d imiss=%.2f%% dmiss=%.2f%%",
		s.Cycles, s.Instrs, s.CPI(), s.Branches, s.Taken, s.MemOps, s.SpillOps, s.SetLastRegs,
		100*s.ICache.MissRate(), 100*s.DCache.MissRate())
}

// TopOps returns the n opcodes with the largest attributed cycle
// share, descending — the per-opcode profile behind -trace output.
func (s Stats) TopOps(n int) []OpShare {
	var out []OpShare
	for op, c := range s.OpCycles {
		if c > 0 {
			out = append(out, OpShare{Op: ir.Op(op), Cycles: c, Count: s.OpCounts[op]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Op < out[j].Op
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// OpShare is one opcode's attributed execution share.
type OpShare struct {
	Op     ir.Op
	Cycles uint64
	Count  uint64
}

// Machine is the cost model: it charges cycles over the steps of an
// internal/interp machine.
type Machine struct {
	cfg Config
	ic  *cache.Cache
	dc  *cache.Cache
	// extra[op] is op's latency beyond its base cycle.
	extra [ir.NumOps]uint64
}

// New builds a machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Model.InstrBytes == 0 {
		cfg.Model = encode.Thumb16()
	}
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = 50_000_000
	}
	ic, err := cache.New(cfg.ICache)
	if err != nil {
		return nil, fmt.Errorf("pipeline: icache: %w", err)
	}
	dc, err := cache.New(cfg.DCache)
	if err != nil {
		return nil, fmt.Errorf("pipeline: dcache: %w", err)
	}
	m := &Machine{cfg: cfg, ic: ic, dc: dc}
	m.extra[ir.OpMul] = uint64(cfg.MulLat - 1)
	m.extra[ir.OpDiv] = uint64(cfg.DivLat - 1)
	m.extra[ir.OpRem] = uint64(cfg.DivLat - 1)
	m.extra[ir.OpLoad] = uint64(cfg.LoadUseBubble)
	m.extra[ir.OpSpillLoad] = uint64(cfg.LoadUseBubble)
	return m, nil
}

// Run options.
type RunOptions struct {
	// Args are the argument values, one per ORIGINAL parameter of the
	// pre-allocation function, in order. OrigParams lists those
	// original parameter registers; spilled ones are matched against
	// asn.StackParams, the rest bind to f.Params in order.
	Args       []int64
	OrigParams []ir.Reg
	// ArgLive, when non-nil, flags positionally which original
	// parameters' incoming values are observable (see
	// interp.Options.ArgLive). nil binds every argument.
	ArgLive []bool
	// Mem pre-initializes data memory (word addressed, 4-byte words).
	Mem map[int64]int64
}

// Run executes f to completion and returns the return value and
// statistics. When asn is non-nil operands resolve through machine
// registers (colors); with a nil asn the function runs directly on
// virtual registers (useful as a semantic reference).
func (m *Machine) Run(f *ir.Func, asn *regalloc.Assignment, opts RunOptions) (ret int64, st Stats, err error) {
	m.ic.Reset()
	m.dc.Reset()
	st.BlockCounts = make([]uint64, len(f.Blocks))
	st.BlockCycles = make([]uint64, len(f.Blocks))
	st.BlockIMisses = make([]uint64, len(f.Blocks))
	st.BlockDMisses = make([]uint64, len(f.Blocks))
	st.OpCycles = make([]uint64, ir.NumOps)
	st.OpCounts = make([]uint64, ir.NumOps)
	defer func() {
		st.ICache = m.ic.Stats
		st.DCache = m.dc.Stats
		st.SetLastRegs = st.OpCounts[ir.OpSetLastReg]
		st.SpillOps = st.OpCounts[ir.OpSpillLoad] + st.OpCounts[ir.OpSpillStore]
	}()

	xopts := interp.Options{Args: opts.Args, OrigParams: opts.OrigParams, ArgLive: opts.ArgLive, Mem: opts.Mem}
	if asn != nil {
		xopts.NumRegs, xopts.RegOf, xopts.StackParams = asn.K, asn.RegOf, asn.StackParams
	}
	x, err := interp.New(f, xopts)
	if err != nil {
		return 0, st, err
	}
	fetch := encode.Place(f, m.cfg.Model, 0).Addr
	ipen, dpen := uint64(m.ic.Penalty()), uint64(m.dc.Penalty())
	bubble := uint64(m.cfg.BranchBubble)
	st.BlockCounts[f.Entry().Index]++
	for {
		if st.Instrs >= m.cfg.MaxInstrs {
			return 0, st, fmt.Errorf("pipeline: instruction budget exhausted (%d)", m.cfg.MaxInstrs)
		}
		s, err := x.Step()
		if err != nil {
			return 0, st, err
		}
		st.Instrs++
		bi := s.Block.Index
		// Base cycle plus latency; set_last_reg costs only its fetch
		// and decode slot (§2.3).
		cyc := 1 + m.extra[s.In.Op]
		if !m.ic.Access(fetch[s.Index]) {
			cyc += ipen
			st.BlockIMisses[bi]++
		}
		if s.Mem {
			st.MemOps++
			if !m.dc.Access(uint64(s.Addr)) {
				cyc += dpen
				st.BlockDMisses[bi]++
			}
		}
		if s.Succ >= 0 {
			// Every control transfer counts as a branch. Successor 0
			// (a conditional branch's taken target, a jmp's only
			// target) is a redirect and pays the bubble.
			st.Branches++
			if s.Succ == 0 {
				st.Taken++
				cyc += bubble
			}
			st.BlockCounts[s.Block.Succs[s.Succ].Index]++
		}
		// Attribute everything this instruction cost — base cycle,
		// cache stalls, latency, bubbles — to its opcode and the block
		// it issued from.
		st.Cycles += cyc
		st.OpCycles[s.In.Op] += cyc
		st.OpCounts[s.In.Op]++
		st.BlockCycles[bi] += cyc
		if s.Done {
			return s.Ret, st, nil
		}
	}
}
