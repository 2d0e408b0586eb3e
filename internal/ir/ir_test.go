package ir

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

const loopSrc = `
func sum(v0, v1) {
entry:
  v2 = li 0        ; acc
  v3 = li 0        ; i
  jmp head
head:
  blt v3, v1 -> body, exit
body:
  v4 = load v0, 0
  v2 = add v2, v4
  v5 = li 1
  v3 = add v3, v5
  v0 = add v0, v5
  jmp head
exit:
  ret v2
}
`

func TestParsePrintRoundtrip(t *testing.T) {
	f := MustParse(loopSrc)
	text := f.String()
	g, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if got := g.String(); got != text {
		t.Fatalf("roundtrip mismatch:\n%s\nvs\n%s", text, got)
	}
}

func TestParseStructure(t *testing.T) {
	f := MustParse(loopSrc)
	if f.Name != "sum" {
		t.Errorf("name = %q", f.Name)
	}
	if len(f.Params) != 2 {
		t.Errorf("params = %d", len(f.Params))
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d", len(f.Blocks))
	}
	head := f.BlockByName("head")
	if head == nil || len(head.Succs) != 2 {
		t.Fatalf("head succs")
	}
	if head.Succs[0].Name != "body" || head.Succs[1].Name != "exit" {
		t.Errorf("head successors %s %s", head.Succs[0].Name, head.Succs[1].Name)
	}
	if len(head.Preds) != 2 {
		t.Errorf("head preds = %d", len(head.Preds))
	}
	if f.NumRegs() != 6 {
		t.Errorf("NumRegs = %d, want 6", f.NumRegs())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"func f( {",                            // malformed header
		"func f() {\nentry:\n  ret\n",          // missing }
		"func f() {\nentry:\n  bogus v1\n}",    // unknown op
		"func f() {\n  ret\n}",                 // instr outside block
		"func f() {\nentry:\n  jmp nowhere\n}", // undefined label
		"func f() {\nentry:\n  v0 = li x\n}",   // bad immediate
		"func f() {\nentry:\nentry:\n  ret\n}", // duplicate label
		"func f() {\nentry:\n  v0 = add v1\n}", // wrong arity
		"func f() {\nentry:\n  ret\nmore:\n}",  // empty block
		"func f() {\nentry:\n  v0 = li 1\n}",   // missing terminator
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

// blocksSrc is a function of blocks b0, b1, ... whose bodies body(i)
// supplies, grown until the source reaches limit bytes.
func blocksSrc(limit int, body func(i int) string) (src string, blocks int) {
	var b strings.Builder
	b.WriteString("func big() {\n")
	for ; b.Len() < limit; blocks++ {
		fmt.Fprintf(&b, "b%d:\n%s", blocks, body(blocks))
	}
	b.WriteString("}\n")
	return b.String(), blocks
}

// TestParseManyBlocksLinear: labels resolve through a hash index, so a
// 1 MiB function of tens of thousands of blocks, inside the daemon's
// default request limit, parses in linear time. A linear scan per label
// took seconds here.
func TestParseManyBlocksLinear(t *testing.T) {
	const limit = 1 << 20
	rets, n := blocksSrc(limit, func(int) string { return "  ret\n" })
	jmps, m := blocksSrc(limit, func(i int) string { return fmt.Sprintf("  jmp b%d\n", i+1) })
	jmps = strings.Replace(jmps, fmt.Sprintf("jmp b%d\n", m), "ret\n", 1) // the last block returns
	for _, c := range []struct {
		src    string
		blocks int
		chain  bool // block i jumps to block i+1
	}{{rets, n, false}, {jmps, m, true}} {
		start := time.Now()
		f, err := Parse(c.src)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed > 2*time.Second {
			t.Errorf("%d blocks parsed in %v", c.blocks, elapsed)
		}
		if len(f.Blocks) != c.blocks {
			t.Fatalf("parsed %d blocks, want %d", len(f.Blocks), c.blocks)
		}
		for i, b := range f.Blocks[:c.blocks-1] {
			if c.chain && (len(b.Succs) != 1 || b.Succs[0] != f.Blocks[i+1]) {
				t.Fatalf("%s does not jump to b%d", b.Name, i+1)
			}
		}
	}
	// The index finds duplicates and missing labels after it grows.
	dup := strings.Replace(rets, "}\n", "b100:\n  ret\n}\n", 1)
	if _, err := Parse(dup); err == nil || !strings.Contains(err.Error(), `duplicate label "b100"`) {
		t.Errorf("duplicate label: %v", err)
	}
	missing := strings.Replace(rets, "b5:\n  ret\n", "b5:\n  jmp nowhere\n", 1)
	if _, err := Parse(missing); err == nil || !strings.Contains(err.Error(), `undefined label "nowhere"`) {
		t.Errorf("undefined label: %v", err)
	}
}

func TestVerifyCatchesBadEdges(t *testing.T) {
	f := MustParse(loopSrc)
	// Break the pred backlink.
	head := f.BlockByName("head")
	head.Preds = head.Preds[:1]
	if err := f.Verify(); err == nil {
		t.Fatal("Verify accepted broken pred list")
	}
}

func TestReversePostorder(t *testing.T) {
	f := MustParse(loopSrc)
	rpo := f.ReversePostorder()
	if len(rpo) != 4 {
		t.Fatalf("rpo len = %d", len(rpo))
	}
	if rpo[0].Name != "entry" {
		t.Errorf("rpo[0] = %s", rpo[0].Name)
	}
	pos := map[string]int{}
	for i, b := range rpo {
		pos[b.Name] = i
	}
	if !(pos["entry"] < pos["head"] && pos["head"] < pos["body"] && pos["head"] < pos["exit"]) {
		t.Errorf("rpo order: %v", pos)
	}
}

func TestDominators(t *testing.T) {
	f := MustParse(loopSrc)
	idom := f.Dominators()
	get := func(n string) *Block { return f.BlockByName(n) }
	if idom[get("head").Index] != get("entry") {
		t.Errorf("idom(head) = %v", idom[get("head").Index].Name)
	}
	if idom[get("body").Index] != get("head") || idom[get("exit").Index] != get("head") {
		t.Errorf("idom(body/exit) wrong")
	}
	if !Dominates(idom, get("entry"), get("exit")) {
		t.Error("entry should dominate exit")
	}
	if Dominates(idom, get("body"), get("exit")) {
		t.Error("body must not dominate exit")
	}
}

func TestNaturalLoops(t *testing.T) {
	f := MustParse(loopSrc)
	loops := f.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d", len(loops))
	}
	l := loops[0]
	if l.Header.Name != "head" {
		t.Errorf("header = %s", l.Header.Name)
	}
	in := map[string]bool{}
	for _, b := range l.Blocks {
		in[f.Blocks[b].Name] = true
	}
	if !in["body"] || !in["head"] {
		t.Error("loop body missing blocks")
	}
	if in["entry"] || in["exit"] {
		t.Error("loop contains blocks outside the cycle")
	}
}

func TestLoopDepthsAndFreq(t *testing.T) {
	f := MustParse(loopSrc)
	d := f.LoopDepths()
	if d[f.BlockByName("body").Index] != 1 || d[f.BlockByName("entry").Index] != 0 {
		t.Errorf("depths: %v", d)
	}
	freq := f.BlockFreqs()
	if freq[f.BlockByName("body").Index] != 10 || freq[f.BlockByName("exit").Index] != 1 {
		t.Errorf("freq: %v", freq)
	}
}

func TestNestedLoopDepth(t *testing.T) {
	src := `
func nest(v0) {
entry:
  jmp outer
outer:
  blt v0, v0 -> inner, exit
inner:
  blt v0, v0 -> inner2, outer
inner2:
  jmp inner
exit:
  ret
}
`
	f := MustParse(src)
	d := f.LoopDepths()
	if d[f.BlockByName("inner2").Index] != 2 {
		t.Errorf("inner2 depth = %d, want 2", d[f.BlockByName("inner2").Index])
	}
	if d[f.BlockByName("outer").Index] != 1 {
		t.Errorf("outer depth = %d, want 1", d[f.BlockByName("outer").Index])
	}
}

func TestCloneIndependence(t *testing.T) {
	f := MustParse(loopSrc)
	g := f.Clone()
	if g.String() != f.String() {
		t.Fatal("clone differs")
	}
	g.Blocks[0].Instrs[0].Imm = 99
	g.Blocks[0].Instrs[0].Defs[0] = 5
	if f.Blocks[0].Instrs[0].Imm == 99 || f.Blocks[0].Instrs[0].Defs[0] == 5 {
		t.Fatal("clone shares instruction storage")
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("clone verify: %v", err)
	}
}

func TestBuilderProducesValidIR(t *testing.T) {
	b := NewBuilder("built")
	x := b.Param()
	n := b.Param()
	acc := b.LI(0)
	head := b.F.NewBlock("head")
	body := b.F.NewBlock("body")
	exit := b.F.NewBlock("exit")
	b.Jmp(head)
	b.SetBlock(head)
	b.BrCmp(OpBLT, acc, n, body, exit)
	b.SetBlock(body)
	v := b.Load(x, 4)
	b.BinTo(OpAdd, acc, acc, v)
	b.Jmp(head)
	b.SetBlock(exit)
	b.Ret(acc)
	if err := b.F.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if b.F.NumInstrs() != 7 {
		t.Errorf("NumInstrs = %d", b.F.NumInstrs())
	}
	// The built function must also roundtrip through text.
	if _, err := Parse(b.F.String()); err != nil {
		t.Fatalf("parse built: %v\n%s", err, b.F.String())
	}
}

func TestRegFieldsAccessOrder(t *testing.T) {
	in := &Instr{Op: OpAdd, Defs: []Reg{3}, Uses: []Reg{1, 2}}
	got := in.RegFields()
	want := []Reg{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("RegFields = %v, want %v (src1, src2, dst)", got, want)
	}
	slr := &Instr{Op: OpSetLastReg, Imm: 2, Imm2: -1}
	if len(slr.RegFields()) != 0 {
		t.Error("set_last_reg must contribute no register fields")
	}
}

func TestInstrStringForms(t *testing.T) {
	checks := map[string]*Instr{
		"v1 = li 42":          {Op: OpLI, Defs: []Reg{1}, Imm: 42},
		"v2 = load v1, 8":     {Op: OpLoad, Defs: []Reg{2}, Uses: []Reg{1}, Imm: 8},
		"store v2, v1, 4":     {Op: OpStore, Uses: []Reg{2, 1}, Imm: 4},
		"set_last_reg 3":      {Op: OpSetLastReg, Imm: 3, Imm2: -1},
		"set_last_reg 3, 1":   {Op: OpSetLastReg, Imm: 3, Imm2: 1},
		"v3 = add v1, v2":     {Op: OpAdd, Defs: []Reg{3}, Uses: []Reg{1, 2}},
		"v1 = call f, v2, v3": {Op: OpCall, Defs: []Reg{1}, Uses: []Reg{2, 3}, Sym: "f"},
		"ret v1":              {Op: OpRet, Uses: []Reg{1}},
		// Malformed instructions print the operands they have.
		"li 0":          {Op: OpLI},
		"load v0, 4":    {Op: OpLoad, Uses: []Reg{0}, Imm: 4},
		"v1 = load 4":   {Op: OpLoad, Defs: []Reg{1}, Imm: 4},
		"store v2, 4":   {Op: OpStore, Uses: []Reg{2}, Imm: 4},
		"spill_load 8":  {Op: OpSpillLoad, Imm: 8},
		"spill_store 8": {Op: OpSpillStore, Imm: 8},
	}
	for want, in := range checks {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	_, err := Parse("func f() {\nentry:\n  li 0\n  ret\n}\n")
	if want := "ir: f/entry instr 0 (li 0): def count"; err == nil || err.Error() != want {
		t.Errorf("def-less li: %v, want %s", err, want)
	}
	f := MustParse(loopSrc)
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(10, func() { buf = f.AppendTo(buf[:0]) }); n != 0 {
		t.Errorf("AppendTo allocates %v times", n)
	}
}

func TestInsertBefore(t *testing.T) {
	f := MustParse(loopSrc)
	body := f.BlockByName("body")
	n := len(body.Instrs)
	in := &Instr{Op: OpLI, Defs: []Reg{f.NewReg()}, Imm: 7}
	body.InsertBefore(2, in)
	if len(body.Instrs) != n+1 || body.Instrs[2] != in {
		t.Fatal("InsertBefore misplaced")
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("verify after insert: %v", err)
	}
}

func TestIsMove(t *testing.T) {
	mv := &Instr{Op: OpMov, Defs: []Reg{1}, Uses: []Reg{2}}
	if !mv.IsMove() {
		t.Error("mov not recognized")
	}
	add := &Instr{Op: OpAdd, Defs: []Reg{1}, Uses: []Reg{2, 3}}
	if add.IsMove() {
		t.Error("add recognized as move")
	}
}

func TestOpStringTable(t *testing.T) {
	if OpAdd.String() != "add" || OpSetLastReg.String() != "set_last_reg" {
		t.Error("op names wrong")
	}
	if !strings.Contains(Op(200).String(), "op(") {
		t.Error("out-of-range op should degrade gracefully")
	}
}

func TestBuilderFullSurface(t *testing.T) {
	b := NewBuilder("full")
	p := b.Param()
	one := b.LI(1)
	sum := b.Bin(OpAdd, p, one)
	neg := b.Un(OpNeg, sum)
	cp := b.Mov(neg)
	b.MovTo(cp, sum)
	b.LITo(one, 2)
	ld := b.Load(p, 0)
	b.LoadTo(ld, p, 4)
	b.Store(ld, p, 8)
	res := b.Call("ext", sum, cp)
	then := b.F.NewBlock("then")
	els := b.F.NewBlock("els")
	exit := b.F.NewBlock("exit")
	b.Br(res, then, els)
	b.SetBlock(then)
	if b.Cur() != then {
		t.Fatal("Cur mismatch")
	}
	b.Jmp(exit)
	b.SetBlock(els)
	b.Jmp(exit)
	b.SetBlock(exit)
	b.Ret(NoReg) // void return
	if err := b.F.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Builder's Block() helper creates and switches in one call.
	b2 := NewBuilder("g")
	blk := b2.Block("body")
	if b2.Cur() != blk {
		t.Fatal("Block did not switch")
	}
}

func TestRecomputePreds(t *testing.T) {
	f := MustParse(loopSrc)
	head := f.BlockByName("head")
	want := len(head.Preds)
	// Clobber all pred lists, then rebuild from successor edges.
	for _, b := range f.Blocks {
		b.Preds = nil
	}
	f.RecomputePreds()
	if len(head.Preds) != want {
		t.Fatalf("head preds %d, want %d", len(head.Preds), want)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("verify after recompute: %v", err)
	}
}

func TestEmptyHelpers(t *testing.T) {
	f := NewFunc("empty")
	if f.Entry() != nil {
		t.Error("empty func entry should be nil")
	}
	var blk Block
	if blk.Terminator() != nil {
		t.Error("empty block terminator should be nil")
	}
	if f.BlockByName("nope") != nil {
		t.Error("phantom block")
	}
	if err := f.Verify(); err == nil {
		t.Error("empty func must not verify")
	}
}

func TestSplitEdgePanicsOnMissingEdge(t *testing.T) {
	f := MustParse(loopSrc)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nonexistent edge")
		}
	}()
	f.SplitEdge(f.BlockByName("entry"), f.BlockByName("exit"))
}
