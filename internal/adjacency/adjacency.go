// Package adjacency implements the adjacency graph of the paper's §4:
// a directed weighted graph whose nodes are live ranges (or, for the
// post-pass remapping of §5, machine registers) and whose edge
// vi -> vj with weight w records that vj immediately follows vi in the
// register access sequence w (frequency-weighted) times.
//
// The differential-encoding cost of a register numbering is the sum of
// weights of edges violating condition (3):
//
//	0 <= (reg_no(vj) - reg_no(vi)) mod RegN < DiffN
//
// Each violating adjacent pair needs one set_last_reg per occurrence.
//
// A graph has one form, the flat CSR: the builders walk the access
// sequence into (from, to, weight) triples and FromEdges groups them
// into row and incidence slices.
package adjacency

import (
	"diffra/internal/diffenc"
	"diffra/internal/ir"
)

// Satisfied reports whether condition (3) holds for an adjacent pair
// numbered (from, to): the difference must be encodable.
func Satisfied(fromReg, toReg, regN, diffN int) bool {
	return diffenc.Diff(fromReg, toReg, regN) < diffN
}

// nodeFunc maps an operand register field to a graph node (or -1 to
// skip the access entirely, e.g. reserved special registers).
type nodeFunc func(r ir.Reg) int

// build walks the access sequence of f and emits one weighted edge per
// adjacent pair: consecutive accesses within a block weigh the block's
// frequency; the pair crossing from each predecessor's last access to a
// block's first access weighs freq(block)/len(preds), since one
// set_last_reg at the block head repairs all incoming paths (§4).
// Fields are visited in ir.Instr.RegFields order (uses, then defs; none
// for set_last_reg).
//
// bw supplies block weights indexed by Block.Index: the static
// 10^depth estimate when nil, or a measured execution profile (§4
// suggests profile frequencies "should be reflected in the edge
// weights").
func build(f *ir.Func, n int, node nodeFunc, bw []float64) *CSR {
	if bw == nil {
		bw = f.BlockFreqs()
	}

	// Every access after a block's first, and every predecessor of a
	// block, emits at most one edge.
	size := 0
	for _, b := range f.Blocks {
		size += len(b.Preds)
		for _, in := range b.Instrs {
			size += len(in.Uses) + len(in.Defs)
		}
	}
	edges := make([]Edge, 0, size)

	firstNode := make([]int32, len(f.Blocks))
	lastNode := make([]int32, len(f.Blocks))
	for _, b := range f.Blocks {
		w := bw[b.Index]
		first, prev := -1, -1
		for _, in := range b.Instrs {
			if in.Op == ir.OpSetLastReg {
				continue
			}
			for _, regs := range [2][]ir.Reg{in.Uses, in.Defs} {
				for _, r := range regs {
					nd := node(r)
					if nd < 0 {
						continue
					}
					if prev >= 0 {
						edges = append(edges, Edge{int32(prev), int32(nd), w})
					} else {
						first = nd
					}
					prev = nd
				}
			}
		}
		firstNode[b.Index], lastNode[b.Index] = int32(first), int32(prev)
	}

	for _, b := range f.Blocks {
		first := firstNode[b.Index]
		if first < 0 || len(b.Preds) == 0 {
			continue
		}
		w := bw[b.Index] / float64(len(b.Preds))
		for _, p := range b.Preds {
			if last := lastNode[p.Index]; last >= 0 {
				edges = append(edges, Edge{last, first, w})
			}
		}
	}
	return FromEdges(n, edges)
}

// BuildVReg builds the adjacency graph over live ranges (virtual
// registers); the select and coalesce stages (§6, §7) work on this
// graph during allocation.
func BuildVReg(f *ir.Func) *CSR {
	return build(f, f.NumRegs(), func(r ir.Reg) int { return int(r) }, nil)
}

// BuildVRegProfile is BuildVReg with measured block frequencies,
// indexed by Block.Index.
func BuildVRegProfile(f *ir.Func, freq []float64) *CSR {
	return build(f, f.NumRegs(), func(r ir.Reg) int { return int(r) }, freq)
}

// BuildReg builds the adjacency graph over machine registers from an
// allocated function; the post-pass remapping of §5 works on this more
// restrictive graph ("multiple live ranges might be assigned to the
// same register leading to more edges being linked to one node").
func BuildReg(f *ir.Func, regOf func(ir.Reg) int, regN int) *CSR {
	return build(f, regN, func(r ir.Reg) int { return regOf(r) }, nil)
}

// BuildRegProfile is BuildReg with measured block frequencies,
// indexed by Block.Index.
func BuildRegProfile(f *ir.Func, regOf func(ir.Reg) int, regN int, freq []float64) *CSR {
	return build(f, regN, func(r ir.Reg) int { return regOf(r) }, freq)
}
