package diffenc

import (
	"fmt"
	"testing"
)

// FuzzSequenceRoundtrip: any register sequence under any in-range
// configuration must encode, decode back exactly, and stay within the
// code space.
func FuzzSequenceRoundtrip(f *testing.F) {
	f.Add([]byte{1, 3, 8}, uint8(16), uint8(8))
	f.Add([]byte{0, 2, 1}, uint8(4), uint8(2))
	f.Add([]byte{}, uint8(2), uint8(1))
	f.Add([]byte{7, 7, 7, 0}, uint8(8), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, regNRaw, diffNRaw uint8) {
		regN := 2 + int(regNRaw)%62
		diffN := 1 + int(diffNRaw)%regN
		cfg := Config{RegN: regN, DiffN: diffN}
		regs := make([]int, len(raw))
		for i, b := range raw {
			regs[i] = int(b) % regN
		}
		codes, repairs, err := EncodeSequence(regs, cfg)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		for _, c := range codes {
			if c < 0 || c >= diffN {
				t.Fatalf("code %d outside [0,%d)", c, diffN)
			}
		}
		back, err := DecodeSequence(codes, repairs, nil, cfg)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		for i := range regs {
			if back[i] != regs[i] {
				t.Fatalf("roundtrip: %v -> %v", regs, back)
			}
		}
	})
}

// FuzzDecoderRobust: the hardware decoder model must reject (not
// panic on) arbitrary code streams, negative codes included, and
// DecodeSequence, which decodes through it, must fail exactly when it
// fails and agree with it otherwise.
func FuzzDecoderRobust(f *testing.F) {
	f.Add([]byte{1, 2, 5}, uint8(16), uint8(8))
	f.Add([]byte{255}, uint8(4), uint8(2))
	f.Add([]byte{255, 2}, uint8(6), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, regNRaw, diffNRaw uint8) {
		regN := 2 + int(regNRaw)%62
		diffN := 1 + int(diffNRaw)%regN
		cfg := Config{RegN: regN, DiffN: diffN}
		d, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dp, _ := NewDecoder(cfg)
		codes := make([]int, len(raw))
		var want []int
		var failed bool
		for i, b := range raw {
			code := int(int8(b))
			codes[i] = code
			a, err1 := d.DecodeInstr([]int{code}, nil)
			p, err2 := dp.DecodeInstrParallel([]int{code}, nil)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("decoders disagree on error for code %d", code)
			}
			if err1 != nil {
				failed = true
				continue
			}
			if a[0] != p[0] {
				t.Fatalf("decoders disagree: %d vs %d", a[0], p[0])
			}
			if !failed {
				want = append(want, a[0])
			}
		}
		got, err := DecodeSequence(codes, nil, nil, cfg)
		if (err != nil) != failed {
			t.Fatalf("DecodeSequence(%v) error %v, Decoder failed: %v", codes, err, failed)
		}
		if err == nil && fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("DecodeSequence(%v) = %v, Decoder decoded %v", codes, got, want)
		}
	})
}
