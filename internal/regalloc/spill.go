package regalloc

import (
	"diffra/internal/ir"
)

// SlotAssigner hands out stack slots for spilled live ranges, four
// bytes apart in the order they are first asked for.
type SlotAssigner struct {
	next  int64
	slots []int64 // by vreg: 1 + its slot, or 0 before it has one
}

// NewSlotAssigner creates an empty slot table.
func NewSlotAssigner() *SlotAssigner {
	return &SlotAssigner{}
}

// SlotOf returns the slot of v, allocating one on first request.
func (s *SlotAssigner) SlotOf(v ir.Reg) int64 {
	if int(v) >= len(s.slots) {
		s.slots = append(s.slots, make([]int64, int(v)+1-len(s.slots))...)
	}
	if off := s.slots[v]; off > 0 {
		return off - 1
	}
	off := s.next
	s.next += 4
	s.slots[v] = off + 1
	return off
}

// Spill rewrites f so that every vreg in vregs lives in memory, and
// books the rewrite in a. It is the one spill convention every
// allocator follows:
//
//   - Spilled parameters take their slots first, in parameter order.
//     They become stack-passed arguments, as in real calling
//     conventions once the register file is exhausted: a.StackParams
//     records each one's slot (the map is created on the first) and
//     f.Params drops it, which keeps the entry clique colorable.
//   - Each use of a spilled v becomes a fresh temporary loaded by
//     spill_load just before its instruction, and each def a fresh
//     temporary stored by spill_store just after it; the other vregs
//     take their slots in that order.
//   - a.SpilledVRegs grows by len(vregs) and a.SpillInstrs by the
//     instructions inserted.
//
// The temporaries are the only registers created during allocation, so
// an allocation that started from n registers knows every v >= n for a
// reload temporary: its live range is already minimal, and spilling it
// again would not lower pressure.
func (a *Assignment) Spill(f *ir.Func, vregs []int, slots *SlotAssigner) {
	n := f.NumRegs()
	var small [1]uint64
	spilled := small[:]
	if n > 64 {
		spilled = make([]uint64, (n+63)/64)
	}
	for _, v := range vregs {
		spilled[v>>6] |= 1 << uint(v&63)
	}
	isSpilled := func(r ir.Reg) bool {
		return int(r) < n && spilled[r>>6]&(1<<uint(r&63)) != 0
	}
	a.SpilledVRegs += len(vregs)

	kept := f.Params[:0]
	for _, p := range f.Params {
		if !isSpilled(p) {
			kept = append(kept, p)
			continue
		}
		if a.StackParams == nil {
			a.StackParams = map[ir.Reg]int64{}
		}
		a.StackParams[p] = slots.SlotOf(p)
	}
	f.Params = kept

	// Count the spill instructions first, so that they, their operands
	// and the rewritten blocks' instruction lists come from three slabs.
	spillsIn := func(b *ir.Block) int {
		k := 0
		for _, in := range b.Instrs {
			for _, u := range in.Uses {
				if isSpilled(u) {
					k++
				}
			}
			for _, d := range in.Defs {
				if isSpilled(d) {
					k++
				}
			}
		}
		return k
	}
	inserted, rewritten := 0, 0
	for _, b := range f.Blocks {
		if k := spillsIn(b); k > 0 {
			inserted += k
			rewritten += len(b.Instrs) + k
		}
	}
	if inserted == 0 {
		return
	}
	a.SpillInstrs += inserted
	instrs := make([]ir.Instr, inserted)
	ops := make([]ir.Reg, inserted)
	lists := make([]*ir.Instr, 0, rewritten)
	spill := func(op ir.Op, v ir.Reg) (*ir.Instr, ir.Reg) {
		in, t := &instrs[0], f.NewReg()
		*in = ir.Instr{Op: op, Imm: slots.SlotOf(v), Imm2: -1}
		if op == ir.OpSpillLoad {
			in.Defs = ops[:1:1]
		} else {
			in.Uses = ops[:1:1]
		}
		ops[0] = t
		instrs, ops = instrs[1:], ops[1:]
		return in, t
	}
	for _, b := range f.Blocks {
		if spillsIn(b) == 0 {
			continue // nothing spilled here: the block keeps its list
		}
		start := len(lists)
		for _, in := range b.Instrs {
			for i, u := range in.Uses {
				if isSpilled(u) {
					ld, t := spill(ir.OpSpillLoad, u)
					lists = append(lists, ld)
					in.Uses[i] = t
				}
			}
			lists = append(lists, in)
			for i, d := range in.Defs {
				if isSpilled(d) {
					st, t := spill(ir.OpSpillStore, d)
					lists = append(lists, st)
					in.Defs[i] = t
				}
			}
		}
		b.Instrs = lists[start:len(lists):len(lists)]
	}
}

// SubstituteAliases rewrites every operand and parameter of f to its
// coalescing representative alias(v) and deletes the moves that
// coalescing made redundant (source and destination now name the same
// vreg). The result is still consistent at the vreg level, so the
// allocation verifier and later passes can recompute liveness.
func SubstituteAliases(f *ir.Func, alias func(int) int) {
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			for i, u := range in.Uses {
				in.Uses[i] = ir.Reg(alias(int(u)))
			}
			for i, d := range in.Defs {
				in.Defs[i] = ir.Reg(alias(int(d)))
			}
			if in.IsMove() && in.Defs[0] == in.Uses[0] {
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	for i, p := range f.Params {
		f.Params[i] = ir.Reg(alias(int(p)))
	}
}
