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
type Func struct {
	Name    string
	Blocks  []*Block
	Params  []Reg
	numRegs int
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
	b := &Block{Name: name, Index: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
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
func (f *Func) AddEdge(b, succ *Block) {
	b.Succs = append(b.Succs, succ)
	succ.Preds = append(succ.Preds, b)
}

// RecomputePreds rebuilds all predecessor lists from successor lists.
// Passes that restructure the CFG call this before running analyses.
func (f *Func) RecomputePreds() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			s.Preds = append(s.Preds, b)
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
// original. The copied instructions and their operand slices live in
// two slabs — one allocation each instead of three per instruction.
// Operand slices are carved at exact capacity, so a hypothetical
// append to one would copy out rather than clobber its neighbor; the
// instruction slab is sized up front and never reallocates, keeping
// the *Instr pointers stable.
func (f *Func) Clone() *Func {
	nf := &Func{Name: f.Name, numRegs: f.numRegs}
	nf.Params = append([]Reg(nil), f.Params...)
	nops := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			nops += len(in.Uses) + len(in.Defs)
		}
	}
	slab := make([]Instr, 0, f.NumInstrs())
	ops := make([]Reg, 0, nops)
	idx := make(map[*Block]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := nf.NewBlock(b.Name)
		nb.Instrs = make([]*Instr, len(b.Instrs))
		for i, in := range b.Instrs {
			slab = append(slab, *in)
			c := &slab[len(slab)-1]
			// Empty operand lists keep their original (possibly nil)
			// header so a clone is indistinguishable from a copy.
			if len(in.Defs) > 0 {
				o := len(ops)
				ops = append(ops, in.Defs...)
				c.Defs = ops[o:len(ops):len(ops)]
			}
			if len(in.Uses) > 0 {
				o := len(ops)
				ops = append(ops, in.Uses...)
				c.Uses = ops[o:len(ops):len(ops)]
			}
			nb.Instrs[i] = c
		}
		idx[b] = nb
	}
	for _, b := range f.Blocks {
		nb := idx[b]
		for _, s := range b.Succs {
			nb.Succs = append(nb.Succs, idx[s])
		}
		for _, p := range b.Preds {
			nb.Preds = append(nb.Preds, idx[p])
		}
	}
	return nf
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
