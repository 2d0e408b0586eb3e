package diffenc

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDecoderSequentialBasics(t *testing.T) {
	d, err := NewDecoder(Config{RegN: 16, DiffN: 8})
	if err != nil {
		t.Fatal(err)
	}
	// §2's example: R1, R3, R8 from last_reg 0: codes 1, 2, 5.
	regs, err := d.DecodeInstr([]int{1, 2, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 8}
	for i := range want {
		if regs[i] != want[i] {
			t.Fatalf("regs = %v, want %v", regs, want)
		}
	}
	if d.LastReg(0) != 8 {
		t.Errorf("last_reg = %d, want 8", d.LastReg(0))
	}
}

func TestDecoderSetLastReg(t *testing.T) {
	d, _ := NewDecoder(Config{RegN: 4, DiffN: 2})
	d.SetLastReg(2)
	regs, err := d.DecodeInstr([]int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if regs[0] != 2 {
		t.Fatalf("decoded %d, want 2", regs[0])
	}
}

func TestDecoderRejectsBadCode(t *testing.T) {
	d, _ := NewDecoder(Config{RegN: 8, DiffN: 4})
	if _, err := d.DecodeInstr([]int{4}, nil); err == nil {
		t.Fatal("code 4 with DiffN=4 and no reserved slots must fail")
	}
	d2, _ := NewDecoder(Config{RegN: 8, DiffN: 4})
	if _, err := d2.DecodeInstrParallel([]int{9}, nil); err == nil {
		t.Fatal("parallel decoder accepted bad code")
	}
}

func TestDecoderReservedBypassesAdder(t *testing.T) {
	cfg := Config{RegN: 16, DiffN: 7, Reserved: []int{15}}
	d, _ := NewDecoder(cfg)
	regs, err := d.DecodeInstr([]int{3, 7, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3 -> R3; code 7 -> reserved R15 (last_reg untouched); 1 -> R4.
	if regs[0] != 3 || regs[1] != 15 || regs[2] != 4 {
		t.Fatalf("regs = %v", regs)
	}
}

// TestQuickParallelEqualsSequential is §2.1's correctness claim: the
// prefix-adder parallel decode is observationally identical to the
// sequential decode, across instructions, classes, reserved codes, the
// per-instruction update of §9.4 and set_last_reg in both forms, with
// delayed sets landing anywhere from the first field to past the last.
func TestQuickParallelEqualsSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{RegN: 8 + rng.Intn(24), DiffN: 0}
		cfg.DiffN = 1 + rng.Intn(cfg.RegN)
		if rng.Intn(3) == 0 {
			cfg.Reserved = []int{cfg.RegN - 1}
		}
		multiClass := rng.Intn(2) == 0
		if multiClass {
			cfg.ClassOf = func(r int) int { return r % 2 }
		}
		cfg.PerInstruction = rng.Intn(2) == 0
		seqD, err := NewDecoder(cfg)
		if err != nil {
			return false
		}
		parD, _ := NewDecoder(cfg)
		for instr := 0; instr < 20; instr++ {
			n := rng.Intn(4)
			// Interleave set_last_reg on both decoders: immediate, or
			// delayed by 0 to n+1 fields.
			for rng.Intn(3) == 0 {
				v, delay := rng.Intn(cfg.RegN), rng.Intn(n+3)-1
				seqD.SetLastRegDelayed(v, delay)
				parD.SetLastRegDelayed(v, delay)
			}
			codes := make([]int, n)
			var classes []int
			if multiClass {
				classes = make([]int, n)
			}
			for i := range codes {
				codes[i] = rng.Intn(cfg.DiffN + len(cfg.Reserved))
				if multiClass {
					classes[i] = rng.Intn(2)
				}
			}
			a, err1 := seqD.DecodeInstr(codes, classes)
			b, err2 := parD.DecodeInstrParallel(codes, classes)
			if err1 != nil || err2 != nil {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			for c := 0; c < 2; c++ {
				if seqD.LastReg(c) != parD.LastReg(c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestDelayedSetLanding pins where set_last_reg(value, delay) lands:
// after delay fields of the next instruction with register fields, at
// its end when delay reaches the field count, and never on an
// instruction without fields. Per field and per instruction (§9.4),
// under both adders.
func TestDelayedSetLanding(t *testing.T) {
	type step struct {
		value, delay int // a set_last_reg when value >= 0
		codes        []int
		classes      []int
		want         []int
	}
	for _, c := range []struct {
		name                 string
		perInstr, twoClasses bool
		steps                []step
		last                 int // class 0's last_reg at the end
	}{
		{name: "mid-instruction", steps: []step{
			{value: 5, delay: 1},
			{value: -1, codes: []int{1, 0, 2}, want: []int{1, 5, 7}},
		}, last: 7},
		{name: "at the field count", steps: []step{
			{value: 5, delay: 2},
			{value: -1, codes: []int{1, 2}, want: []int{1, 3}},
			{value: -1, codes: []int{1}, want: []int{6}},
		}, last: 6},
		{name: "beyond the field count", steps: []step{
			{value: 5, delay: 7},
			{value: -1, codes: []int{1, 2}, want: []int{1, 3}},
		}, last: 5},
		{name: "across a field-less instruction", steps: []step{
			{value: 5, delay: 1},
			{value: -1, codes: nil, want: []int{}},
			{value: -1, codes: []int{1, 0}, want: []int{1, 5}},
		}, last: 5},
		{name: "immediate and delayed at one point", steps: []step{
			{value: 5, delay: 0},
			{value: 3, delay: -1},
			{value: -1, codes: []int{0}, want: []int{5}},
		}, last: 5},
		{name: "per-instruction mid-instruction", perInstr: true, steps: []step{
			{value: 5, delay: 1},
			{value: -1, codes: []int{1, 0, 2}, want: []int{1, 5, 7}},
		}, last: 7},
		{name: "per-instruction at the field count", perInstr: true, steps: []step{
			{value: 5, delay: 1},
			{value: -1, codes: []int{2}, want: []int{2}},
		}, last: 5},
		// Classes r%2: the set for class 0 lands at field 1, after
		// class 0's only field, which still sets last_reg at the end.
		{name: "per-instruction final field outlasts a set", perInstr: true, twoClasses: true, steps: []step{
			{value: 4, delay: 1},
			{value: -1, codes: []int{2, 1}, classes: []int{0, 1}, want: []int{2, 1}},
		}, last: 2},
		{name: "per-field set after the class's last field", twoClasses: true, steps: []step{
			{value: 4, delay: 1},
			{value: -1, codes: []int{2, 1}, classes: []int{0, 1}, want: []int{2, 1}},
		}, last: 4},
	} {
		for _, parallel := range []bool{false, true} {
			cfg := Config{RegN: 8, DiffN: 4, PerInstruction: c.perInstr}
			if c.twoClasses {
				cfg.ClassOf = func(r int) int { return r % 2 }
			}
			d, _ := NewDecoder(cfg)
			for i, s := range c.steps {
				if s.value >= 0 {
					d.SetLastRegDelayed(s.value, s.delay)
					continue
				}
				decode := d.DecodeInstr
				if parallel {
					decode = d.DecodeInstrParallel
				}
				got, err := decode(s.codes, s.classes)
				if err != nil {
					t.Fatalf("%s (parallel=%v) step %d: %v", c.name, parallel, i, err)
				}
				if fmt.Sprint(got) != fmt.Sprint(s.want) {
					t.Errorf("%s (parallel=%v) step %d: decoded %v, want %v", c.name, parallel, i, got, s.want)
				}
			}
			if d.LastReg(0) != c.last {
				t.Errorf("%s (parallel=%v): last_reg %d, want %d", c.name, parallel, d.LastReg(0), c.last)
			}
		}
	}
}

// TestDecoderRejectsBadSetValue: a set_last_reg naming no register is
// reported by the next decode, field-less or not.
func TestDecoderRejectsBadSetValue(t *testing.T) {
	d, _ := NewDecoder(Config{RegN: 8, DiffN: 4})
	d.SetLastRegDelayed(8, 0)
	if _, err := d.DecodeInstr(nil, nil); err == nil {
		t.Fatal("set_last_reg 8 with RegN=8 was accepted")
	}
}

// The decoder must agree with the sequence encoder: decoding the codes
// EncodeSequence produced (applying repairs) reproduces the registers.
func TestDecoderAgreesWithEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		regN := 4 + rng.Intn(28)
		cfg := Config{RegN: regN, DiffN: 1 + rng.Intn(regN)}
		regs := make([]int, rng.Intn(40))
		for i := range regs {
			regs[i] = rng.Intn(regN)
		}
		codes, repairs, err := EncodeSequence(regs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := NewDecoder(cfg)
		for i, code := range codes {
			if v, ok := repairs[i]; ok {
				d.SetLastReg(v)
			}
			got, err := d.DecodeInstr([]int{code}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != regs[i] {
				t.Fatalf("trial %d field %d: decoded R%d, want R%d", trial, i, got[0], regs[i])
			}
		}
	}
}
