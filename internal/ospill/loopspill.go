package ospill

import (
	"slices"

	"diffra/internal/ir"
	"diffra/internal/liveness"
	"diffra/internal/regalloc"
)

// Loop-granularity spilling. A live range that crosses a loop without
// being referenced inside it occupies a register for the whole loop
// for no benefit. Where Chaitin-style allocators can only spill such a
// range everywhere (paying a load at every use elsewhere), the optimal
// spilling formulation gives the solver a second, often far cheaper
// option: store the value once on entry to the loop and reload it once
// on exit. This placement freedom — deciding per program region rather
// than per live range — is the essence of what the CPLEX formulation
// of Appel & George buys (paper reference [1]); the covering model
// here captures its most profitable special case.

// LoopSpillCandidate is a (live range, loop) pair eligible for
// region spilling.
type LoopSpillCandidate struct {
	V    ir.Reg
	Loop *ir.Loop
	// Cost is the frequency-weighted price: one store per loop entry
	// edge plus one load per loop exit edge where V is live.
	Cost float64
	// entries and exits are the placement edges.
	entries []edge
	exits   []edge
}

type edge struct{ from, to *ir.Block }

// loopSpillCandidates enumerates eligible pairs: v live into the loop
// header, no occurrence of v anywhere in the loop. Loops come by header
// block index and each loop's ranges in ascending order; freq is
// f.BlockFreqs(). The candidates' entry and exit edges are carved from
// one slice.
func loopSpillCandidates(f *ir.Func, info *liveness.Info, freq []float64) []LoopSpillCandidate {
	loops := f.NaturalLoops()
	if len(loops) == 0 {
		return nil
	}
	slices.SortFunc(loops, func(a, b *ir.Loop) int { return a.Header.Index - b.Header.Index })
	ncand := 0
	for _, l := range loops {
		ncand += info.LiveIn[l.Header.Index].Len()
	}
	out := make([]LoopSpillCandidate, 0, ncand)
	var exits, placed []edge
	// occurs[v] == li+1 marks an occurrence of v in loop li, and
	// inLoop[b] == li+1 block b as one of its blocks.
	occurs := make([]int32, f.NumRegs())
	inLoop := make([]int32, len(f.Blocks))
	for li, l := range loops {
		stamp := int32(li + 1)
		for _, bi := range l.Blocks {
			inLoop[bi] = stamp
		}
		exits = exits[:0]
		for _, bi := range l.Blocks {
			b := f.Blocks[bi]
			for _, in := range b.Instrs {
				for _, u := range in.Uses {
					occurs[u] = stamp
				}
				for _, d := range in.Defs {
					occurs[d] = stamp
				}
			}
			for _, s := range b.Succs {
				if inLoop[s.Index] != stamp {
					exits = append(exits, edge{b, s})
				}
			}
		}
		// Exits by source, then target, block index.
		slices.SortFunc(exits, func(a, b edge) int {
			if a.from != b.from {
				return a.from.Index - b.from.Index
			}
			return a.to.Index - b.to.Index
		})
		start := len(placed)
		for _, p := range l.Header.Preds {
			if inLoop[p.Index] != stamp {
				placed = append(placed, edge{p, l.Header})
			}
		}
		if len(placed) == start {
			continue // unreachable or irreducible shape
		}
		entries := placed[start:len(placed):len(placed)]

		live := info.LiveIn[l.Header.Index]
		live.ForEach(func(vi int) {
			if occurs[vi] == stamp {
				return
			}
			// Exits where v is live onward need a reload.
			vs := len(placed)
			cost := 0.0
			for _, e := range exits {
				if info.LiveIn[e.to.Index].Has(vi) {
					placed = append(placed, e)
					cost += freq[e.to.Index]
				}
			}
			for _, e := range entries {
				cost += freq[e.from.Index]
			}
			out = append(out, LoopSpillCandidate{
				V: ir.Reg(vi), Loop: l, Cost: cost,
				entries: entries, exits: placed[vs:len(placed):len(placed)],
			})
		})
	}
	return out
}

// loopMembership tells a walk over the blocks in index order whether
// the block it is in lies in a candidate's loop, in O(1) per question
// and O(blocks + total loop size) space.
type loopMembership struct {
	loopOf []int // candidate -> position of its loop among the candidates' loops
	off    []int // the loops containing block b: loops[off[b]:off[b+1]]
	loops  []int
	at     []int // at[l] == b+1 while the walk is in block b and b is in loop l
}

// newLoopMembership indexes the loops of cands (which come loop by
// loop) over nb blocks; with no candidates it answers nothing.
func newLoopMembership(cands []LoopSpillCandidate, nb int) loopMembership {
	var m loopMembership
	if len(cands) == 0 {
		return m
	}
	var loops []*ir.Loop
	m.loopOf = make([]int, len(cands))
	for ci, c := range cands {
		if len(loops) == 0 || loops[len(loops)-1] != c.Loop {
			loops = append(loops, c.Loop)
		}
		m.loopOf[ci] = len(loops) - 1
	}
	members := 0
	for _, l := range loops {
		members += len(l.Blocks)
	}
	buf := make([]int, nb+1+members+len(loops))
	m.off, m.loops, m.at = buf[:nb+1], buf[nb+1:nb+1+members], buf[nb+1+members:]
	// A counting sort by block: after the prefix sums off[b] is the end
	// of b's run, and filling from the last loop down leaves it at the
	// start with the loops ascending.
	for _, l := range loops {
		for _, b := range l.Blocks {
			m.off[b]++
		}
	}
	for b := 1; b <= nb; b++ {
		m.off[b] += m.off[b-1]
	}
	for li := len(loops) - 1; li >= 0; li-- {
		for _, b := range loops[li].Blocks {
			m.off[b]--
			m.loops[m.off[b]] = li
		}
	}
	return m
}

// enter moves the walk to block b.
func (m *loopMembership) enter(b int) {
	if m.off == nil {
		return
	}
	for _, l := range m.loops[m.off[b]:m.off[b+1]] {
		m.at[l] = b + 1
	}
}

// has reports whether block b, the one the walk is in, lies in
// candidate ci's loop.
func (m *loopMembership) has(ci, b int) bool { return m.at[m.loopOf[ci]] == b+1 }

// edgeBlock returns a block in which code belonging to the edge e can
// be placed just before the terminator: the source itself when it has
// a single successor, an already-existing split block between the two
// (from a previous candidate's rewrite), or a freshly split one.
func edgeBlock(f *ir.Func, e edge) *ir.Block {
	if len(e.from.Succs) == 1 {
		return e.from
	}
	for _, s := range e.from.Succs {
		if s == e.to {
			b := f.SplitEdge(e.from, e.to)
			f.Reindex()
			return b
		}
	}
	// A previous rewrite split this edge already; reuse the split
	// block (single-entry single-exit jmp to the target).
	for _, s := range e.from.Succs {
		if len(s.Preds) == 1 && len(s.Succs) == 1 && s.Succs[0] == e.to {
			return s
		}
	}
	panic("ospill: edge " + e.from.Name + " -> " + e.to.Name + " disappeared")
}

// ApplyLoopSpill rewrites f for one chosen candidate: a store of V on
// every loop entry edge and a reload on every exit edge where V lives
// on. Critical edges are split (and split blocks are shared across
// candidates). Returns the number of instructions inserted.
func ApplyLoopSpill(f *ir.Func, c LoopSpillCandidate, slots *regalloc.SlotAssigner) int {
	slot := slots.SlotOf(c.V)
	inserted := 0
	for _, e := range c.entries {
		b := edgeBlock(f, e)
		b.InsertBefore(len(b.Instrs)-1, &ir.Instr{Op: ir.OpSpillStore, Uses: []ir.Reg{c.V}, Imm: slot, Imm2: -1})
		inserted++
	}
	for _, e := range c.exits {
		b := edgeBlock(f, e)
		b.InsertBefore(len(b.Instrs)-1, &ir.Instr{Op: ir.OpSpillLoad, Defs: []ir.Reg{c.V}, Imm: slot, Imm2: -1})
		inserted++
	}
	return inserted
}
