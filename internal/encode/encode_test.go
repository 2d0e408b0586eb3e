package encode

import (
	"testing"

	"diffra/internal/ir"
)

const src = `
func f(v0, v1) {
entry:
  v2 = add v0, v1
  v3 = li 4
  v4 = load v0, 8
  store v4, v0, 12
  set_last_reg 2
  blt v2, v3 -> a, b
a:
  jmp b
b:
  ret v2
}
`

func TestPlaceSequentialAddresses(t *testing.T) {
	f := ir.MustParse(src)
	l := Place(f, Thumb16(), 0x1000)
	if l.Size != uint64(f.NumInstrs()*2) {
		t.Errorf("size = %d, want %d", l.Size, f.NumInstrs()*2)
	}
	if len(l.Addr) != f.NumInstrs() {
		t.Fatalf("%d addresses for %d instructions", len(l.Addr), f.NumInstrs())
	}
	prev := uint64(0xFFF)
	for i, a := range l.Addr {
		if a != prev+2 && i > 0 {
			t.Errorf("non-sequential address %#x after %#x", a, prev)
		}
		if i == 0 && a != 0x1000 {
			t.Errorf("first address %#x, want 0x1000", a)
		}
		prev = a
	}
}

func TestCodeBytesModels(t *testing.T) {
	f := ir.MustParse(src)
	if got := CodeBytes(f, Thumb16()); got != f.NumInstrs()*2 {
		t.Errorf("thumb bytes = %d", got)
	}
	if got := CodeBytes(f, RISC32()); got != f.NumInstrs()*4 {
		t.Errorf("risc bytes = %d", got)
	}
}

func TestBitsDecomposition(t *testing.T) {
	f := ir.MustParse(src)
	m := Thumb16()
	s := Bits(f, m, 3)
	if s.Instrs != f.NumInstrs() {
		t.Errorf("instrs = %d", s.Instrs)
	}
	if s.Opcode != s.Instrs*m.OpcodeBits {
		t.Errorf("opcode bits = %d", s.Opcode)
	}
	// Register fields: add 3, li 1, load 2, store 2, set_last_reg 0,
	// blt 2, jmp 0, ret 1 = 11 fields.
	if s.RegFields != 11*3 {
		t.Errorf("reg field bits = %d, want %d", s.RegFields, 11*3)
	}
	// Imm-bearing: li, load, store, set_last_reg = 4.
	if s.Imm != 4*m.ImmBits {
		t.Errorf("imm bits = %d, want %d", s.Imm, 4*m.ImmBits)
	}
	if share := s.RegFieldShare(); share <= 0 || share >= 1 {
		t.Errorf("share = %v", share)
	}
}

// The §2 claim: with a given field budget, differential encoding
// either shrinks the register-field share or addresses more registers.
func TestNarrowerFieldsShrinkShare(t *testing.T) {
	f := ir.MustParse(src)
	m := Thumb16()
	direct := Bits(f, m, 4) // RegW for RegN=12
	diff := Bits(f, m, 3)   // DiffW for DiffN=8
	if diff.RegFields >= direct.RegFields {
		t.Errorf("differential fields %d not smaller than direct %d", diff.RegFields, direct.RegFields)
	}
	if diff.Opcode != direct.Opcode || diff.Imm != direct.Imm {
		t.Error("only register fields may differ")
	}
}
