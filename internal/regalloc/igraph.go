// Package regalloc holds the machinery shared by all register
// allocators in this repository: the interference graph, spill-code
// rewriting, allocation results and the allocation verifier.
package regalloc

import (
	"fmt"

	"diffra/internal/bitset"
	"diffra/internal/ir"
	"diffra/internal/liveness"
)

// Graph is an interference graph over the virtual registers of one
// function, with the move instructions recorded for coalescing.
type Graph struct {
	N       int // node count == f.NumRegs()
	adj     []*bitset.Set
	AdjList [][]int
	Moves   []*ir.Instr // register-to-register copies
}

// Build constructs the interference graph with the standard
// Chaitin/Briggs rules: at every instruction the defined registers
// interfere with everything live after the instruction, except that a
// move's destination does not interfere with its source (so the pair
// stays coalescible). Registers live on function entry (the
// parameters) interfere pairwise, as they occupy registers
// simultaneously at the call boundary.
func Build(f *ir.Func, info *liveness.Info) *Graph {
	g := &Graph{N: f.NumRegs()}
	g.adj = make([]*bitset.Set, g.N)
	g.AdjList = make([][]int, g.N)
	for i := range g.adj {
		g.adj[i] = bitset.New(g.N)
	}

	Interferences(f, info, func(in *ir.Instr) { g.Moves = append(g.Moves, in) }, g.AddEdge)
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

// AddEdge inserts an undirected interference edge between u and v.
func (g *Graph) AddEdge(u, v int) {
	if u == v || g.adj[u].Has(v) {
		return
	}
	g.adj[u].Add(v)
	g.adj[v].Add(u)
	g.AdjList[u] = append(g.AdjList[u], v)
	g.AdjList[v] = append(g.AdjList[v], u)
}

// Interferes reports whether u and v conflict.
func (g *Graph) Interferes(u, v int) bool { return u != v && g.adj[u].Has(v) }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int { return len(g.AdjList[u]) }

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
	if len(asn.Color) < f.NumRegs() {
		return fmt.Errorf("regalloc: assignment covers %d of %d vregs", len(asn.Color), f.NumRegs())
	}
	used := bitset.New(f.NumRegs())
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
	// materializing a Graph: Build keeps an O(V^2)-bit adjacency matrix
	// to dedup edges, which dominates verification on large functions
	// (tens of thousands of vregs), while the walk is O(instrs x live).
	var err2 error
	Interferences(f, liveness.Compute(f), nil, func(u, v int) {
		if err2 == nil && u != v && asn.Color[u] == asn.Color[v] {
			err2 = fmt.Errorf("regalloc: interfering v%d and v%d share R%d", u, v, asn.Color[u])
		}
	})
	return err2
}
