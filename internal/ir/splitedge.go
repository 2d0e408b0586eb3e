package ir

import "fmt"

// SplitEdge inserts a new block on the CFG edge from->to and returns
// it. The new block contains a single jmp to the original target; the
// from block's successor entry and the target's predecessor entry are
// rewired. Spill-placement passes use this to put code on a critical
// edge (one whose source has several successors and whose target has
// several predecessors) without executing it on any other path.
func (f *Func) SplitEdge(from, to *Block) *Block {
	nb := f.NewBlock(fmt.Sprintf("split_%s_%s", from.Name, to.Name))
	nb.Instrs = []*Instr{{Op: OpJmp, Imm2: -1}}
	rewired := false
	for i, s := range from.Succs {
		if s == to && !rewired {
			from.Succs[i] = nb
			rewired = true
		}
	}
	if !rewired {
		panic(fmt.Sprintf("ir: SplitEdge: no edge %s -> %s", from.Name, to.Name))
	}
	nb.Preds = append(f.carveEdges(1), from)
	nb.Succs = append(f.carveEdges(1), to)
	replaced := false
	for i, p := range to.Preds {
		if p == from && !replaced {
			to.Preds[i] = nb
			replaced = true
		}
	}
	if !replaced {
		panic(fmt.Sprintf("ir: SplitEdge: missing pred backlink %s -> %s", from.Name, to.Name))
	}
	return nb
}
