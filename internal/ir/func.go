package ir

import "fmt"

// Block is a basic block: a straight-line instruction sequence ending
// in a single terminator, with explicit successor edges. Predecessor
// edges are maintained by the Func edge helpers.
type Block struct {
	Name   string
	Index  int // position in Func.Blocks
	Instrs []*Instr
	Succs  []*Block
	Preds  []*Block
}

// Terminator returns the block's final instruction, or nil if the
// block is empty.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return b.Instrs[len(b.Instrs)-1]
}

// InsertBefore inserts instruction in at position i.
func (b *Block) InsertBefore(i int, in *Instr) {
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = in
}

// Func is a single function: an entry block (Blocks[0]), the remaining
// blocks in layout order, and a virtual register counter. Params are
// the registers holding incoming arguments, live on entry.
//
// A function allocates its blocks and edge lists per function, not per
// block: NewBlock carves blocks from one slab, and AddEdge carves
// successor and predecessor lists from a second. Each carve is clipped
// to its own capacity, so an append past it copies out instead of
// writing a neighbour's storage. A full slab is replaced by a fresh,
// larger one; carves already handed out stay where they are.
type Func struct {
	Name    string
	Blocks  []*Block
	Params  []Reg
	numRegs int

	blockSlab []Block  // NewBlock's open chunk
	edgeSlab  []*Block // the edge lists' open chunk
}

// NewFunc creates an empty function.
func NewFunc(name string) *Func {
	return &Func{Name: name}
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := Reg(f.numRegs)
	f.numRegs++
	return r
}

// NumRegs returns the number of virtual registers allocated so far.
// Every Reg appearing in the function is in [0, NumRegs).
func (f *Func) NumRegs() int { return f.numRegs }

// EnsureRegs grows the register counter so that ids < n are valid;
// used by the parser, which sees register numbers before counts.
func (f *Func) EnsureRegs(n int) {
	if n > f.numRegs {
		f.numRegs = n
	}
}

// NewBlock appends a new empty block.
func (f *Func) NewBlock(name string) *Block {
	if len(f.blockSlab) == cap(f.blockSlab) {
		f.blockSlab = make([]Block, 0, max(4, 2*cap(f.blockSlab)))
	}
	f.blockSlab = append(f.blockSlab, Block{Name: name, Index: len(f.Blocks)})
	b := &f.blockSlab[len(f.blockSlab)-1]
	f.Blocks = append(f.Blocks, b)
	return b
}

// reserve sizes the open block and edge slabs and the Blocks list for
// blocks more blocks and edges more edge-list slots, so a builder that
// knows its sizes allocates each once.
func (f *Func) reserve(blocks, edges int) {
	if cap(f.blockSlab)-len(f.blockSlab) < blocks {
		f.blockSlab = make([]Block, 0, blocks)
	}
	if cap(f.edgeSlab)-len(f.edgeSlab) < edges {
		f.edgeSlab = make([]*Block, 0, edges)
	}
	if cap(f.Blocks)-len(f.Blocks) < blocks {
		f.Blocks = append(make([]*Block, 0, len(f.Blocks)+blocks), f.Blocks...)
	}
}

// carveEdges returns an empty edge list with room for n blocks, carved
// from the edge slab.
func (f *Func) carveEdges(n int) []*Block {
	if cap(f.edgeSlab)-len(f.edgeSlab) < n {
		f.edgeSlab = make([]*Block, 0, max(n, 8, 2*cap(f.edgeSlab)))
	}
	o := len(f.edgeSlab)
	f.edgeSlab = f.edgeSlab[:o+n]
	return f.edgeSlab[o : o : o+n]
}

// appendEdge appends b to the edge list l. A list with room grows in
// place, inside its own carve; a full one moves to a fresh carve of
// twice its length (two at least, the successor count of a branch).
func (f *Func) appendEdge(l []*Block, b *Block) []*Block {
	if len(l) == cap(l) {
		l = append(f.carveEdges(max(2, 2*len(l))), l...)
	}
	return append(l, b)
}

// Entry returns the function entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// BlockByName finds a block by label, or nil.
func (f *Func) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// AddEdge records a CFG edge from b to succ, updating both endpoints.
// Both lists grow in f's edge slab.
func (f *Func) AddEdge(b, succ *Block) {
	b.Succs = f.appendEdge(b.Succs, succ)
	succ.Preds = f.appendEdge(succ.Preds, b)
}

// RecomputePreds rebuilds all predecessor lists from successor lists.
// Passes that restructure the CFG call this before running analyses.
// Each list refills its own storage and moves to the edge slab only
// once it outgrows it.
func (f *Func) RecomputePreds() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			s.Preds = f.appendEdge(s.Preds, b)
		}
	}
}

// Reindex refreshes Block.Index after block insertion or removal.
func (f *Func) Reindex() {
	for i, b := range f.Blocks {
		b.Index = i
	}
}

// NumInstrs counts instructions across all blocks.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Clone returns a deep copy of the function (blocks, instructions,
// edges). Allocators that rewrite code clone first so callers keep the
// original. The copy allocates per function, not per block or
// instruction: its blocks, its edge lists, its instructions, their
// operand lists (and the parameters) and the blocks' instruction lists
// each live in one slab. Every list is carved at exact capacity, so an
// append to one copies out rather than clobbering its neighbour; the
// instruction and block slabs are sized up front and never reallocate,
// keeping the *Instr and *Block pointers stable.
func (f *Func) Clone() *Func {
	nf := &Func{Name: f.Name, numRegs: f.numRegs}
	nops, nedges := len(f.Params), 0
	for _, b := range f.Blocks {
		nedges += len(b.Succs) + len(b.Preds)
		for _, in := range b.Instrs {
			nops += len(in.Uses) + len(in.Defs)
		}
	}
	nins := f.NumInstrs()
	slab := make([]Instr, 0, nins)
	ptrs := make([]*Instr, 0, nins)
	ops := make([]Reg, 0, nops)
	// carve copies regs into ops at exact capacity; an empty list keeps
	// its original (possibly nil) header so a clone is indistinguishable
	// from a copy.
	carve := func(regs []Reg) []Reg {
		if len(regs) == 0 {
			return regs
		}
		o := len(ops)
		ops = append(ops, regs...)
		return ops[o:len(ops):len(ops)]
	}
	if len(f.Params) > 0 {
		nf.Params = carve(f.Params)
	}
	nf.reserve(len(f.Blocks), nedges)
	for _, b := range f.Blocks {
		nb := nf.NewBlock(b.Name)
		o := len(ptrs)
		for _, in := range b.Instrs {
			slab = append(slab, *in)
			c := &slab[len(slab)-1]
			c.Defs = carve(in.Defs)
			c.Uses = carve(in.Uses)
			ptrs = append(ptrs, c)
		}
		nb.Instrs = ptrs[o:len(ptrs):len(ptrs)]
	}
	// Edges resolve by Block.Index; a stale index falls back to a
	// search, and an edge to a block outside f.Blocks copies as nil.
	clone := func(l []*Block) []*Block {
		c := nf.carveEdges(len(l))
		for _, b := range l {
			c = append(c, counterpart(f, nf, b))
		}
		return c
	}
	for i, b := range f.Blocks {
		nb := nf.Blocks[i]
		if len(b.Succs) > 0 {
			nb.Succs = clone(b.Succs)
		}
		if len(b.Preds) > 0 {
			nb.Preds = clone(b.Preds)
		}
	}
	return nf
}

// counterpart returns the block of nf, a clone of f, that stands for
// f's block b, or nil when b is not one of f's blocks.
func counterpart(f, nf *Func, b *Block) *Block {
	if i := b.Index; i >= 0 && i < len(f.Blocks) && f.Blocks[i] == b {
		return nf.Blocks[i]
	}
	for i, x := range f.Blocks {
		if x == b {
			return nf.Blocks[i]
		}
	}
	return nil
}

// Verify checks structural invariants: every block non-empty and
// terminated exactly once at the end, successor counts matching the
// terminator, edge symmetry, and operand shapes matching the opcode
// table. It returns the first violation found.
func (f *Func) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("ir: func %s has no blocks", f.Name)
	}
	for bi, b := range f.Blocks {
		if b.Index != bi {
			return fmt.Errorf("ir: %s/%s stale index %d != %d", f.Name, b.Name, b.Index, bi)
		}
		if len(b.Instrs) == 0 {
			return fmt.Errorf("ir: %s/%s is empty", f.Name, b.Name)
		}
		for ii, in := range b.Instrs {
			last := ii == len(b.Instrs)-1
			if in.Op.IsTerminator() != last {
				return fmt.Errorf("ir: %s/%s instr %d (%s): terminator placement", f.Name, b.Name, ii, in)
			}
			if n := in.Op.NumUses(); n >= 0 && len(in.Uses) != n {
				return fmt.Errorf("ir: %s/%s instr %d (%s): want %d uses, have %d", f.Name, b.Name, ii, in, n, len(in.Uses))
			}
			if in.Op.HasDef() != (len(in.Defs) == 1) && in.Op != OpSetLastReg {
				return fmt.Errorf("ir: %s/%s instr %d (%s): def count", f.Name, b.Name, ii, in)
			}
			for _, ops := range [2][]Reg{in.Defs, in.Uses} {
				for _, r := range ops {
					if r < 0 || int(r) >= f.numRegs {
						return fmt.Errorf("ir: %s/%s instr %d (%s): register v%d out of range [0,%d)", f.Name, b.Name, ii, in, r, f.numRegs)
					}
				}
			}
		}
		t := b.Terminator()
		if want := t.Op.NumSuccs(); want >= 0 && len(b.Succs) != want {
			return fmt.Errorf("ir: %s/%s: terminator %s wants %d successors, block has %d", f.Name, b.Name, t.Op, want, len(b.Succs))
		}
		for _, s := range b.Succs {
			if !containsBlock(s.Preds, b) {
				return fmt.Errorf("ir: %s: edge %s->%s missing pred backlink", f.Name, b.Name, s.Name)
			}
		}
		for _, p := range b.Preds {
			if !containsBlock(p.Succs, b) {
				return fmt.Errorf("ir: %s: pred %s of %s has no succ link", f.Name, p.Name, b.Name)
			}
		}
	}
	return nil
}

func containsBlock(s []*Block, b *Block) bool {
	for _, x := range s {
		if x == b {
			return true
		}
	}
	return false
}
