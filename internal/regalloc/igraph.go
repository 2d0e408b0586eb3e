// Package regalloc holds the machinery shared by all register
// allocators in this repository: the interference rule and the
// interference graph built from it (flat neighbor lists), spill-code
// rewriting, allocation results and the allocation verifier.
package regalloc

import (
	"fmt"

	"diffra/internal/bitset"
	"diffra/internal/ir"
	"diffra/internal/liveness"
	"diffra/internal/scratch"
)

// Graph is an interference graph over the virtual registers of one
// function.
type Graph struct {
	N int // node count == f.NumRegs()
	// AdjList[u] lists u's neighbors, each once, in the order
	// Interferences first reports the pair. The rows share one backing
	// array.
	AdjList [][]int
}

// Build constructs the interference graph with the standard
// Chaitin/Briggs rules: at every instruction the defined registers
// interfere with everything live after the instruction, except that a
// move's destination does not interfere with its source (so the pair
// stays coalescible). Registers live on function entry (the
// parameters) interfere pairwise, as they occupy registers
// simultaneously at the call boundary.
func Build(f *ir.Func, info *liveness.Info) *Graph {
	n := f.NumRegs()
	g := &Graph{N: n, AdjList: make([][]int, n)}

	// Count each row's reports, repeats included, so the rows can be
	// filled into one flat slice in report order.
	off := make([]int, n+1)
	Interferences(f, info, nil, func(u, v int) {
		if u != v {
			off[u+1]++
			off[v+1]++
		}
	})
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	flat := make([]int, off[n])
	for u := range g.AdjList {
		g.AdjList[u] = flat[off[u]:off[u]:off[u+1]]
	}
	Interferences(f, info, nil, func(u, v int) {
		if u != v {
			g.AdjList[u] = append(g.AdjList[u], v)
			g.AdjList[v] = append(g.AdjList[v], u)
		}
	})

	// Drop repeats in place, keeping each neighbor's first report.
	seen := make([]int, n) // seen[v] == u+1 once v is kept in u's row
	for u, row := range g.AdjList {
		kept := row[:0]
		for _, v := range row {
			if seen[v] != u+1 {
				seen[v] = u + 1
				kept = append(kept, v)
			}
		}
		g.AdjList[u] = kept[:len(kept):len(kept)]
	}
	return g
}

// Interferences reports f's interference relation: the one rule every
// graph builder and checker applies. It walks each block backwards,
// blocks in order (liveness.Info.LiveAcross order), and calls edge for
// each conflicting pair: a def conflicts with everything live after its
// instruction except a move's own source, and the defs of one
// instruction conflict pairwise. Registers live into the entry block
// then form a clique, since they coexist without a defining
// instruction in the body. Pairs repeat and may have u == v; callers
// dedupe. move, when non-nil, sees each move instruction in walk order,
// before its edges.
func Interferences(f *ir.Func, info *liveness.Info, move func(*ir.Instr), edge func(u, v int)) {
	for _, b := range f.Blocks {
		info.LiveAcross(b, func(_ int, in *ir.Instr, liveAfter *bitset.Set) {
			isMove := in.IsMove()
			if isMove && move != nil {
				move(in)
			}
			for _, d := range in.Defs {
				liveAfter.ForEach(func(l int) {
					if isMove && ir.Reg(l) == in.Uses[0] {
						return
					}
					edge(int(d), l)
				})
				for _, d2 := range in.Defs {
					edge(int(d), int(d2))
				}
			}
		})
	}
	if e := f.Entry(); e != nil {
		entryLive := info.LiveIn[e.Index]
		entryLive.ForEach(func(u int) {
			entryLive.ForEach(func(v int) {
				if v > u {
					edge(u, v)
				}
			})
		})
	}
}

// Assignment is the result of register allocation: a machine register
// number for every virtual register, plus bookkeeping about spills.
type Assignment struct {
	// Color[v] is the machine register of vreg v, or -1 for registers
	// that no longer appear in the rewritten code.
	Color []int
	// K is the number of machine registers the allocator targeted.
	K int
	// SpilledVRegs counts distinct live ranges sent to memory.
	SpilledVRegs int
	// SpillInstrs counts spill_load/spill_store instructions inserted.
	SpillInstrs int
	// CoalescedMoves counts move instructions eliminated.
	CoalescedMoves int
	// StackParams maps original parameter vregs that were spilled to
	// their stack slots: they arrive in memory rather than registers,
	// as real calling conventions do once the register file is
	// exhausted.
	StackParams map[ir.Reg]int64
}

// RegOf returns the machine register of vreg r, or -1 when r has none
// (the allocator eliminated it, or it lies outside the assignment).
// Executors reject -1 only if an executed instruction reads or writes
// it.
func (a *Assignment) RegOf(r ir.Reg) int {
	if r < 0 || int(r) >= len(a.Color) {
		return -1
	}
	return a.Color[r]
}

// SpillStats tallies spill instructions present in a function; the
// evaluation (Fig. 11) reports spill instructions as a percentage of
// all code.
func SpillStats(f *ir.Func) (spills, total int) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			total++
			if in.Op == ir.OpSpillLoad || in.Op == ir.OpSpillStore {
				spills++
			}
		}
	}
	return spills, total
}

// Verify checks that the assignment is a valid coloring: every vreg
// occurring in the code has a color in [0, K), and any two
// simultaneously live vregs with an interference edge have distinct
// colors. It recomputes liveness to be independent of allocator
// bookkeeping.
func Verify(f *ir.Func, asn *Assignment) error {
	return VerifyScratch(f, asn, nil)
}

// VerifyScratch is Verify with its working sets and liveness carved
// from ar, without resetting it; nothing carved outlives the call.
// Nil: a private arena.
func VerifyScratch(f *ir.Func, asn *Assignment, ar *scratch.Arena) error {
	if len(asn.Color) < f.NumRegs() {
		return fmt.Errorf("regalloc: assignment covers %d of %d vregs", len(asn.Color), f.NumRegs())
	}
	if ar == nil {
		ar = new(scratch.Arena)
	}
	used := ar.Bitset(f.NumRegs())
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, r := range in.Uses {
				used.Add(int(r))
			}
			for _, r := range in.Defs {
				used.Add(int(r))
			}
		}
	}
	for _, p := range f.Params {
		used.Add(int(p))
	}
	var err error
	used.ForEach(func(v int) {
		if err != nil {
			return
		}
		if c := asn.Color[v]; c < 0 || c >= asn.K {
			err = fmt.Errorf("regalloc: v%d has color %d outside [0,%d)", v, c, asn.K)
		}
	})
	if err != nil {
		return err
	}

	// Check interference directly off the liveness walk instead of
	// materializing a Graph: the walk is O(instrs x live) and stores
	// nothing, while Build walks twice and keeps every reported pair.
	var err2 error
	Interferences(f, liveness.ComputeScratch(f, nil, ar), nil, func(u, v int) {
		if err2 == nil && u != v && asn.Color[u] == asn.Color[v] {
			err2 = fmt.Errorf("regalloc: interfering v%d and v%d share R%d", u, v, asn.Color[u])
		}
	})
	return err2
}
