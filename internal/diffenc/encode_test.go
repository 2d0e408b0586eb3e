package diffenc

import (
	"math/rand"
	"strings"
	"testing"

	"diffra/internal/ir"
)

// identity treats the function's vregs directly as machine registers;
// the IR-level tests write programs whose register numbers are already
// physical.
func identity(r ir.Reg) int { return int(r) }

func mustEncode(t *testing.T, f *ir.Func, cfg Config) *Result {
	t.Helper()
	res, err := Encode(f, identity, cfg)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := Check(f, identity, cfg, res); err != nil {
		t.Fatalf("Check: %v", err)
	}
	return res
}

func TestEncodeStraightLine(t *testing.T) {
	f := ir.MustParse(`
func f(v0, v1) {
entry:
  v2 = add v0, v1
  v3 = add v2, v2
  ret v3
}
`)
	// Access sequence: 0,1,2 | 2,2,3 | 3. All diffs 0 or 1.
	res := mustEncode(t, f, Config{RegN: 4, DiffN: 2})
	if res.Cost() != 0 {
		t.Errorf("cost = %d, want 0; sets: %+v", res.Cost(), res.Sets)
	}
	want := []int{0, 1, 1, 0, 0, 1, 0}
	if len(res.Codes) != len(want) {
		t.Fatalf("codes = %v, want %v", res.Codes, want)
	}
	for i := range want {
		if res.Codes[i] != want[i] {
			t.Fatalf("codes = %v, want %v", res.Codes, want)
		}
	}
}

func TestEncodeOutOfRangeInsertsDelaySet(t *testing.T) {
	f := ir.MustParse(`
func f(v0, v2) {
entry:
  v1 = add v0, v2
  ret v1
}
`)
	// §2.3: R1 = R0 + R2 with DiffN=2: fields 0,2,1; the second and
	// third fields are out of range.
	res := mustEncode(t, f, Config{RegN: 4, DiffN: 2})
	if res.Cost() != 2 {
		t.Fatalf("cost = %d, want 2; sets %+v", res.Cost(), res.Sets)
	}
	// First repair matches the paper's set_last_reg(2, 1).
	s := res.Sets[0]
	if s.Value != 2 || s.Delay != 1 || s.Before != 0 {
		t.Errorf("first set = %+v, want value 2 delay 1 before instr 0", s)
	}
	if res.JoinSets != 0 {
		t.Errorf("JoinSets = %d, want 0", res.JoinSets)
	}
}

// TestEncodeMultiPathJoin reproduces Figure 3: two predecessors leave
// different last_reg values; the join block needs a head set.
func TestEncodeMultiPathJoin(t *testing.T) {
	f := ir.MustParse(`
func f(v0, v1, v2) {
entry:
  br v0 -> bb1, bb2
bb1:
  v1 = add v0, v0    ; leaves last_reg = 1
  jmp bb3
bb2:
  v2 = add v0, v0    ; leaves last_reg = 2
  jmp bb3
bb3:
  v3 = add v1, v2
  ret v3
}
`)
	res := mustEncode(t, f, Config{RegN: 8, DiffN: 4})
	if res.JoinSets != 1 {
		t.Fatalf("JoinSets = %d, want 1; sets %+v", res.JoinSets, res.Sets)
	}
	s := res.Sets[0]
	if s.Block.Name != "bb3" || s.Before != 0 {
		t.Errorf("join set at %s/%d, want bb3/0", s.Block.Name, s.Before)
	}
	// The head set pins last_reg to bb3's first accessed register (v1),
	// so the first field encodes difference 0.
	if s.Value != 1 {
		t.Errorf("join set value = %d, want 1", s.Value)
	}
}

func TestEncodeConsistentJoinNeedsNoSet(t *testing.T) {
	// Both predecessors leave the same last_reg: no repair needed.
	f := ir.MustParse(`
func f(v0, v1) {
entry:
  br v0 -> bb1, bb2
bb1:
  v1 = add v0, v0
  jmp bb3
bb2:
  v1 = add v0, v0
  jmp bb3
bb3:
  v2 = add v1, v1
  ret v2
}
`)
	res := mustEncode(t, f, Config{RegN: 8, DiffN: 4})
	if res.JoinSets != 0 {
		t.Errorf("JoinSets = %d, want 0; sets %+v", res.JoinSets, res.Sets)
	}
}

func TestEncodeLoopBackEdge(t *testing.T) {
	// The loop header's predecessors are the entry and the latch; if
	// they disagree, a set is needed and the fixpoint must terminate.
	f := ir.MustParse(`
func f(v0, v1) {
entry:
  v2 = li 0
  jmp head
head:
  blt v2, v1 -> body, exit
body:
  v3 = add v2, v0
  v2 = add v3, v3
  jmp head
exit:
  ret v2
}
`)
	mustEncode(t, f, Config{RegN: 8, DiffN: 2})
	mustEncode(t, f, Config{RegN: 8, DiffN: 4})
	mustEncode(t, f, Config{RegN: 8, DiffN: 8})
}

func TestEncodeCostMonotoneInDiffN(t *testing.T) {
	f := ir.MustParse(`
func f(v0, v5) {
entry:
  v3 = add v0, v5
  v7 = add v3, v0
  v1 = add v7, v5
  ret v1
}
`)
	prev := -1
	for _, diffN := range []int{8, 6, 4, 2, 1} {
		res := mustEncode(t, f, Config{RegN: 8, DiffN: diffN})
		if prev >= 0 && res.Cost() < prev {
			t.Errorf("DiffN=%d cost %d < cost at larger DiffN %d", diffN, res.Cost(), prev)
		}
		prev = res.Cost()
	}
}

func TestApplyToIRInsertsSets(t *testing.T) {
	f := ir.MustParse(`
func f(v0, v2) {
entry:
  v1 = add v0, v2
  ret v1
}
`)
	cfg := Config{RegN: 4, DiffN: 2}
	res := mustEncode(t, f, cfg)
	n := f.NumInstrs()
	res.ApplyToIR(f)
	if err := f.Verify(); err != nil {
		t.Fatalf("IR invalid after ApplyToIR: %v", err)
	}
	if got := f.NumInstrs(); got != n+res.Cost() {
		t.Errorf("instr count %d, want %d", got, n+res.Cost())
	}
	count := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpSetLastReg {
				count++
			}
		}
	}
	if count != res.Cost() {
		t.Errorf("inserted %d set_last_reg, want %d", count, res.Cost())
	}
}

func TestEncodeRejectsBadRegisters(t *testing.T) {
	f := ir.MustParse(`
func f(v0, v9) {
entry:
  v1 = add v0, v9
  ret v1
}
`)
	if _, err := Encode(f, identity, Config{RegN: 4, DiffN: 2}); err == nil {
		t.Fatal("register 9 with RegN=4 must be rejected")
	}
}

func TestCheckDetectsBrokenEncoding(t *testing.T) {
	f := ir.MustParse(`
func f(v0, v1) {
entry:
  v2 = add v0, v1
  ret v2
}
`)
	cfg := Config{RegN: 4, DiffN: 2}
	res, err := Encode(f, identity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one code.
	res.Codes[1] ^= 1
	if err := Check(f, identity, cfg, res); err == nil {
		t.Fatal("Check accepted corrupted code stream")
	}
	// Drop a required set.
	res2, _ := Encode(f, identity, Config{RegN: 8, DiffN: 2})
	if res2.Cost() > 0 {
		res2.Sets = res2.Sets[:0]
		if err := Check(f, identity, Config{RegN: 8, DiffN: 2}, res2); err == nil {
			t.Fatal("Check accepted encoding with missing sets")
		}
	}
}

func TestCheckDetectsMissingJoinSet(t *testing.T) {
	f := ir.MustParse(`
func f(v0, v1, v2) {
entry:
  br v0 -> bb1, bb2
bb1:
  v1 = add v0, v0
  jmp bb3
bb2:
  v2 = add v0, v0
  jmp bb3
bb3:
  v3 = add v1, v2
  ret v3
}
`)
	cfg := Config{RegN: 8, DiffN: 4}
	res, err := Encode(f, identity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var kept []SetPoint
	for _, s := range res.Sets {
		if s.Block.Name != "bb3" {
			kept = append(kept, s)
		}
	}
	res.Sets = kept
	if err := Check(f, identity, cfg, res); err == nil {
		t.Fatal("Check accepted multi-path inconsistency without repair")
	}
}

// randomCFGFunc builds a random function with branches, joins and a
// loop, with all register numbers below regN.
func randomCFGFunc(rng *rand.Rand, regN int) *ir.Func {
	b := ir.NewBuilder("rand")
	nregs := 2 + rng.Intn(regN-1)
	f := b.F
	for i := 0; i < nregs; i++ {
		f.EnsureRegs(i + 1)
	}
	reg := func() ir.Reg { return ir.Reg(rng.Intn(nregs)) }
	emit := func(n int) {
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				b.BinTo(ir.OpAdd, reg(), reg(), reg())
			case 1:
				b.LITo(reg(), int64(rng.Intn(50)))
			case 2:
				b.LoadTo(reg(), reg(), 4)
			}
		}
	}
	emit(1 + rng.Intn(5))
	left := f.NewBlock("left")
	right := f.NewBlock("right")
	join := f.NewBlock("join")
	exit := f.NewBlock("exit")
	b.Br(reg(), left, right)
	b.SetBlock(left)
	emit(rng.Intn(4))
	b.Jmp(join)
	b.SetBlock(right)
	emit(rng.Intn(4))
	b.Jmp(join)
	b.SetBlock(join)
	emit(1 + rng.Intn(4))
	// Loop back to join or exit.
	b.BrCmp(ir.OpBLT, reg(), reg(), join, exit)
	b.SetBlock(exit)
	b.Ret(reg())
	return f
}

// TestQuickEncodeCheckCFG is the package's central property: for
// random CFGs and random configurations, Encode always produces a
// stream that Check proves decodable along every path.
func TestQuickEncodeCheckCFG(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		regN := 4 + rng.Intn(28)
		diffN := 1 + rng.Intn(regN)
		cfg := Config{RegN: regN, DiffN: diffN}
		if rng.Intn(3) == 0 {
			cfg.Reserved = []int{regN - 1}
		}
		if rng.Intn(4) == 0 {
			cfg.ClassOf = func(r int) int { return r % 2 }
		}
		// §9.4 alternatives: flip the access order and the last_reg
		// update granularity at random.
		cfg.DstFirst = rng.Intn(2) == 0
		cfg.PerInstruction = rng.Intn(2) == 0
		f := randomCFGFunc(rng, regN)
		if err := f.Verify(); err != nil {
			t.Fatalf("trial %d: generator: %v", trial, err)
		}
		res, err := Encode(f, identity, cfg)
		if err != nil {
			t.Fatalf("trial %d: Encode: %v", trial, err)
		}
		if err := Check(f, identity, cfg, res); err != nil {
			t.Fatalf("trial %d (RegN=%d DiffN=%d classes=%v): %v\n%s",
				trial, regN, diffN, cfg.ClassOf != nil, err, f)
		}
	}
}

func TestDstFirstAccessOrder(t *testing.T) {
	f := ir.MustParse(`
func f(v0, v1) {
entry:
  v2 = add v0, v1
  ret v2
}
`)
	cfg := Config{RegN: 8, DiffN: 8, DstFirst: true}
	res := mustEncode(t, f, cfg)
	// Access order dst, src1, src2: sequence 2, 0, 1, then ret's 2.
	// With DiffN=RegN every difference encodes directly:
	// 2-0=2, 0-2=6, 1-0=1, 2-1=1.
	want := []int{2, 6, 1, 1}
	for i := range want {
		if res.Codes[i] != want[i] {
			t.Fatalf("codes = %v, want %v", res.Codes, want)
		}
	}
}

func TestPerInstructionLastReg(t *testing.T) {
	f := ir.MustParse(`
func f(v1, v2) {
entry:
  v3 = add v1, v2
  v4 = add v3, v3
  ret v4
}
`)
	cfg := Config{RegN: 8, DiffN: 8, PerInstruction: true}
	res := mustEncode(t, f, cfg)
	// Instruction 1 fields 1,2,3 all diff against last_reg=0: 1,2,3.
	// last_reg then advances to 3 (final field). Instruction 2 fields
	// 3,3,4 diff against 3: 0,0,1. ret's 4 diffs against 4: 0.
	want := []int{1, 2, 3, 0, 0, 1, 0}
	for i := range want {
		if res.Codes[i] != want[i] {
			t.Fatalf("codes = %v, want %v", res.Codes, want)
		}
	}
}

func TestPerInstructionCanBeCheaper(t *testing.T) {
	// The classic ping-pong x = op x, y: per-field encoding pays for
	// the backward step y -> x; per-instruction encoding diffs both
	// operands against the same base.
	f := ir.MustParse(`
func f(v2, v3) {
entry:
  v2 = add v2, v3
  v2 = add v2, v3
  v2 = add v2, v3
  ret v2
}
`)
	perField := mustEncode(t, f, Config{RegN: 12, DiffN: 2})
	perInstr := mustEncode(t, f, Config{RegN: 12, DiffN: 2, PerInstruction: true})
	if perInstr.Cost() > perField.Cost() {
		t.Errorf("per-instruction cost %d above per-field %d on ping-pong pattern",
			perInstr.Cost(), perField.Cost())
	}
}

func TestListing(t *testing.T) {
	f := ir.MustParse(`
func f(v0, v2) {
entry:
  v1 = add v0, v2
  ret v1
}
`)
	cfg := Config{RegN: 4, DiffN: 2}
	res := mustEncode(t, f, cfg)
	res.ApplyToIR(f)
	out := AppliedListing(f, identity, cfg, res)
	for _, want := range []string{
		"RegN=4 DiffN=2",
		"R1 = add R0, R2",
		"decoder repair",
		"set_last_reg 2, 1",
		"ret R1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
}

func TestListingRegisterNameNoPrefixClobber(t *testing.T) {
	// v1 and v12 in one instruction: rewriting v1 first must not eat
	// the prefix of v12.
	f := ir.NewFunc("g")
	f.EnsureRegs(13)
	b := f.NewBlock("entry")
	b.Instrs = append(b.Instrs,
		&ir.Instr{Op: ir.OpAdd, Defs: []ir.Reg{12}, Uses: []ir.Reg{1, 12}, Imm2: -1},
		&ir.Instr{Op: ir.OpRet, Uses: []ir.Reg{12}, Imm2: -1},
	)
	cfg := Config{RegN: 16, DiffN: 16}
	res, err := Encode(f, identity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.ApplyToIR(f)
	out := AppliedListing(f, identity, cfg, res)
	if !strings.Contains(out, "R12 = add R1, R12") {
		t.Errorf("bad operand rewrite:\n%s", out)
	}
}
