package ir

import (
	"fmt"
	"hash/maphash"
	"strconv"
	"strings"
)

// Parse reads one function in the textual IR format produced by
// Func.String. The format, line by line:
//
//	func NAME(v0, v1, ...) {
//	label:
//	  vD = OP vS1, vS2
//	  vD = li IMM
//	  vD = load vBASE, OFF
//	  store vVAL, vBASE, OFF
//	  br v1 -> then, else
//	  beq v1, v2 -> taken, fall
//	  jmp next
//	  ret [vR]
//	  vD = call sym, vA, vB
//	  set_last_reg IMM[, DELAY]
//	}
//
// Blank lines and ; comments are ignored.
//
// Parse sits in front of every compile-service request but a repeated
// text, so it allocates per function, not per token: instructions,
// their operand lists and each block's instruction list are carved
// from slabs, as Func.Clone does. Block names and labels stay substrings of
// src; the function name and call symbols are copied, because they
// outlive the request in cached responses and retained traces and
// would otherwise keep all of src alive. Labels resolve through a hash
// index of the block names, so the parse stays linear in the block
// count.
func Parse(src string) (*Func, error) {
	// The first chunks are sized from the line count, which bounds the
	// instruction count; the slabChunk cap bounds what a body of blank
	// lines or labels allocates for instructions it does not have.
	n := min(strings.Count(src, "\n")+1, slabChunk)
	// Printed labels end their line, so this counts the blocks of a
	// printed function; the cap bounds what a body of label-like
	// comments reserves. A block branches to at most two labels.
	nb := max(1, min(strings.Count(src, ":\n"), slabChunk))
	p := &parser{
		src:     src,
		instrs:  make([]Instr, 0, n),
		ops:     make([]Reg, 0, 2*n),
		ptrs:    make([]*Instr, 0, n),
		labels:  make([]string, 0, 2*nb),
		edges:   make([]pendingEdge, 0, nb),
		nblocks: nb,
	}
	p.blocks.seed = maphash.MakeSeed()
	return p.parse()
}

// slabChunk is the instruction count of every slab chunk after the
// first.
const slabChunk = 256

// MustParse is Parse that panics on error; intended for tests and
// example programs with literal IR.
func MustParse(src string) *Func {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

type parser struct {
	src string
	ln  int

	instrs []Instr  // instruction slab chunk
	ops    []Reg    // operand slab chunk: Params, Defs and Uses
	ptrs   []*Instr // Block.Instrs slab chunk; ptrs[start:] is the open block's
	start  int      // first slot of the open block in ptrs
	labels []string // every pending edge's labels, back to back
	edges  []pendingEdge
	blocks blockIndex
	// nblocks is the expected block count, which sizes the function's
	// block slab.
	nblocks int
}

// blockIndex finds a block by name in O(1): an open-addressing table
// of block index+1 (0: empty slot), kept at most half full. The table
// starts in the fixed array, so a function of up to 32 blocks indexes
// its labels without allocating; past that it moves to the heap and
// doubles as it fills. The hash seed is random per parse, as a Go
// map's is, so an input cannot aim its names at one probe chain.
type blockIndex struct {
	seed  maphash.Seed
	small [64]int32
	big   []int32
}

func (x *blockIndex) table() []int32 {
	if x.big != nil {
		return x.big
	}
	return x.small[:]
}

// find returns the block of f named name, or nil.
func (x *blockIndex) find(f *Func, name string) *Block {
	t := x.table()
	mask := uint64(len(t) - 1)
	for i := maphash.String(x.seed, name) & mask; t[i] != 0; i = (i + 1) & mask {
		if b := f.Blocks[t[i]-1]; b.Name == name {
			return b
		}
	}
	return nil
}

// add indexes f's newest block, growing the table first if that block
// would fill more than half of it.
func (x *blockIndex) add(f *Func) {
	if n := len(x.table()); 2*len(f.Blocks) > n {
		big := make([]int32, 2*n)
		for _, b := range f.Blocks[:len(f.Blocks)-1] {
			x.put(big, b)
		}
		x.big = big
	}
	x.put(x.table(), f.Blocks[len(f.Blocks)-1])
}

func (x *blockIndex) put(t []int32, b *Block) {
	mask := uint64(len(t) - 1)
	i := maphash.String(x.seed, b.Name) & mask
	for t[i] != 0 {
		i = (i + 1) & mask
	}
	t[i] = int32(b.Index + 1)
}

// pendingEdge is a branch whose targets resolve at the closing brace:
// labels[lo:hi] name them.
type pendingEdge struct {
	from   *Block
	lo, hi int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("ir: line %d: %s", p.ln+1, fmt.Sprintf(format, args...))
}

func (p *parser) parse() (*Func, error) {
	var f *Func
	var cur *Block
	for pos := 0; pos <= len(p.src); p.ln++ {
		line := p.src[pos:]
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
			pos += i + 1
		} else {
			pos = len(p.src) + 1
		}
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "func "):
			if f != nil {
				return nil, p.errf("nested func")
			}
			var err error
			if f, err = p.parseHeader(line); err != nil {
				return nil, err
			}
			f.reserve(p.nblocks, 0)
		case line == "}":
			if f == nil {
				return nil, p.errf("} without func")
			}
			p.closeBlock(cur)
			// An edge list first reserves two entries, so two slots
			// per label and two per block hold every list of a
			// function whose blocks have at most two predecessors; a
			// list that grows past its carve may take a new chunk.
			f.reserve(0, 2*len(p.labels)+2*len(f.Blocks))
			for _, e := range p.edges {
				for _, lbl := range p.labels[e.lo:e.hi] {
					t := p.blocks.find(f, lbl)
					if t == nil {
						return nil, p.errf("undefined label %q", lbl)
					}
					f.AddEdge(e.from, t)
				}
			}
			return f, f.Verify()
		case strings.HasSuffix(line, ":"):
			if f == nil {
				return nil, p.errf("label outside func")
			}
			name := strings.TrimSuffix(line, ":")
			if p.blocks.find(f, name) != nil {
				return nil, p.errf("duplicate label %q", name)
			}
			p.closeBlock(cur)
			cur = f.NewBlock(name)
			p.blocks.add(f)
		default:
			if cur == nil {
				return nil, p.errf("instruction outside block")
			}
			lo := len(p.labels)
			in, err := p.parseInstr(line, f)
			if err != nil {
				return nil, err
			}
			p.push(in)
			if hi := len(p.labels); hi > lo {
				p.edges = append(p.edges, pendingEdge{from: cur, lo: lo, hi: hi})
			}
		}
	}
	if f != nil {
		return nil, p.errf("missing closing }")
	}
	return nil, fmt.Errorf("ir: no function found")
}

func (p *parser) parseHeader(line string) (*Func, error) {
	rest := strings.TrimPrefix(line, "func ")
	open := strings.IndexByte(rest, '(')
	close_ := strings.IndexByte(rest, ')')
	if open < 0 || close_ < open || !strings.HasSuffix(rest, "{") {
		return nil, p.errf("malformed func header %q", line)
	}
	f := NewFunc(strings.Clone(strings.TrimSpace(rest[:open])))
	var buf [8]string
	var regs [8]Reg
	params := regs[:0]
	for _, tok := range splitList(buf[:0], rest[open+1:close_]) {
		var err error
		if params, err = addReg(params, tok, f); err != nil {
			return nil, p.errf("%v", err)
		}
	}
	f.Params = p.carveRegs(params)
	return f, nil
}

// parseInstr parses one instruction line, appending the labels it
// branches to onto p.labels.
func (p *parser) parseInstr(line string, f *Func) (*Instr, error) {
	if i := strings.Index(line, "->"); i >= 0 {
		p.labels = splitList(p.labels, line[i+2:])
		line = strings.TrimSpace(line[:i])
	}
	var regs [8]Reg
	ops := regs[:0]
	// Optional "vD = " prefix.
	if i := strings.IndexByte(line, '='); i >= 0 {
		d, err := parseReg(strings.TrimSpace(line[:i]))
		if err != nil {
			return nil, p.errf("%v", err)
		}
		f.EnsureRegs(int(d) + 1)
		ops = append(ops, d)
		line = strings.TrimSpace(line[i+1:])
	}
	nDefs := len(ops)
	var mnemonic, operands string
	if i := strings.IndexByte(line, ' '); i >= 0 {
		mnemonic, operands = line[:i], strings.TrimSpace(line[i+1:])
	} else {
		mnemonic = line
	}
	op, ok := opByName[mnemonic]
	if !ok {
		return nil, p.errf("unknown opcode %q", mnemonic)
	}
	in := p.newInstr()
	in.Op = op
	var buf [8]string
	toks := splitList(buf[:0], operands)

	var err error
	switch op {
	case OpLI:
		if len(toks) != 1 {
			return nil, p.errf("li wants 1 operand")
		}
		err = parseImm(toks[0], &in.Imm)
	case OpLoad:
		if len(toks) != 2 {
			return nil, p.errf("load wants base, offset")
		}
		if ops, err = addReg(ops, toks[0], f); err == nil {
			err = parseImm(toks[1], &in.Imm)
		}
	case OpStore:
		if len(toks) != 3 {
			return nil, p.errf("store wants value, base, offset")
		}
		if ops, err = addReg(ops, toks[0], f); err == nil {
			if ops, err = addReg(ops, toks[1], f); err == nil {
				err = parseImm(toks[2], &in.Imm)
			}
		}
	case OpSpillLoad:
		if len(toks) != 1 {
			return nil, p.errf("spill_load wants a slot")
		}
		err = parseImm(toks[0], &in.Imm)
	case OpSpillStore:
		if len(toks) != 2 {
			return nil, p.errf("spill_store wants value, slot")
		}
		if ops, err = addReg(ops, toks[0], f); err == nil {
			err = parseImm(toks[1], &in.Imm)
		}
	case OpSetLastReg:
		if len(toks) != 1 && len(toks) != 2 {
			return nil, p.errf("set_last_reg wants 1 or 2 operands")
		}
		if err = parseImm(toks[0], &in.Imm); err == nil && len(toks) == 2 {
			err = parseImm(toks[1], &in.Imm2)
		}
	case OpJmp:
		// Allow both "jmp label" and "jmp -> label".
		p.labels = append(p.labels, toks...)
	case OpCall:
		if len(toks) == 0 {
			return nil, p.errf("call wants a symbol")
		}
		in.Sym = strings.Clone(toks[0])
		for _, t := range toks[1:] {
			if ops, err = addReg(ops, t, f); err != nil {
				break
			}
		}
	default:
		for _, t := range toks {
			if ops, err = addReg(ops, t, f); err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, p.errf("%v", err)
	}
	// Defs then Uses, adjacent in the slab; an empty list stays nil.
	carved := p.carveRegs(ops)
	if nDefs > 0 {
		in.Defs = carved[:nDefs:nDefs]
	}
	if len(carved) > nDefs {
		in.Uses = carved[nDefs:]
	}
	return in, nil
}

// newInstr returns the next instruction of the slab, set to the
// parsed form's defaults.
func (p *parser) newInstr() *Instr {
	if len(p.instrs) == cap(p.instrs) {
		p.instrs = make([]Instr, 0, slabChunk)
	}
	p.instrs = append(p.instrs, Instr{Imm2: -1})
	return &p.instrs[len(p.instrs)-1]
}

// carveRegs copies regs into the operand slab and returns the copy
// with its capacity clipped to its length, so an append to one list
// copies out rather than clobbering its neighbour. Empty lists carve
// to nil.
func (p *parser) carveRegs(regs []Reg) []Reg {
	if len(regs) == 0 {
		return nil
	}
	if cap(p.ops)-len(p.ops) < len(regs) {
		p.ops = make([]Reg, 0, max(2*slabChunk, len(regs)))
	}
	o := len(p.ops)
	p.ops = append(p.ops, regs...)
	return p.ops[o:len(p.ops):len(p.ops)]
}

// push appends in to the open block's run of ptrs. A full chunk moves
// the run to a fresh one, so each block's instruction list stays one
// contiguous slice.
func (p *parser) push(in *Instr) {
	if len(p.ptrs) == cap(p.ptrs) {
		run := p.ptrs[p.start:]
		p.ptrs = append(make([]*Instr, 0, max(slabChunk, 2*len(run))), run...)
		p.start = 0
	}
	p.ptrs = append(p.ptrs, in)
}

// closeBlock hands b the open run of ptrs, clipped like carveRegs; a
// block without instructions keeps a nil list.
func (p *parser) closeBlock(b *Block) {
	if n := len(p.ptrs); b != nil && n > p.start {
		b.Instrs = p.ptrs[p.start:n:n]
	}
	p.start = len(p.ptrs)
}

// addReg parses tok as a register of f and appends it to regs.
func addReg(regs []Reg, tok string, f *Func) ([]Reg, error) {
	r, err := parseReg(tok)
	if err != nil {
		return regs, err
	}
	f.EnsureRegs(int(r) + 1)
	return append(regs, r), nil
}

func parseImm(tok string, dst *int64) error {
	v, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return fmt.Errorf("bad immediate %q", tok)
	}
	*dst = v
	return nil
}

// splitList appends the non-empty, space-trimmed fields of the
// comma-separated list s to dst.
func splitList(dst []string, s string) []string {
	for {
		i := strings.IndexByte(s, ',')
		t := s
		if i >= 0 {
			t = s[:i]
		}
		if t = strings.TrimSpace(t); t != "" {
			dst = append(dst, t)
		}
		if i < 0 {
			return dst
		}
		s = s[i+1:]
	}
}

func parseReg(tok string) (Reg, error) {
	if !strings.HasPrefix(tok, "v") {
		return 0, fmt.Errorf("bad register %q", tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad register %q", tok)
	}
	return Reg(n), nil
}
