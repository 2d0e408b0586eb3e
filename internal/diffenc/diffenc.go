// Package diffenc implements differential register encoding, the core
// contribution of Zhuang & Pande, "Differential Register Allocation"
// (PLDI 2005), §2.
//
// Instead of placing an absolute register number in each instruction
// operand field, the field holds the difference (mod RegN) between the
// register accessed now and the register accessed previously, in a
// fixed nominal access order (src1, src2, ..., dst, instruction by
// instruction). With DiffN < RegN encodable differences the field
// needs only DiffW = ceil(log2 DiffN) bits yet all RegN registers stay
// addressable. Two situations break plain encoding and are repaired
// with the set_last_reg ISA extension (§2.3):
//
//   - a difference out of range (>= DiffN), and
//   - multi-path inconsistency: control-flow joins whose predecessors
//     leave different values in last_reg.
//
// The encoder in this package plans set_last_reg insertions, reports
// their count (the "cost" of figures 12–13), and can apply them to the
// IR. Check verifies, edge by edge, that a decoder reproduces exactly
// the original register numbers — the package's central invariant.
package diffenc

import "fmt"

// Config describes a differential encoding scheme.
type Config struct {
	// RegN is the number of addressable registers (must be >= 2).
	RegN int
	// DiffN is the number of distinct differences encodable in a
	// register field: a field can hold d in [0, DiffN). DiffN <= RegN.
	DiffN int
	// Reserved lists special-purpose registers (§9.2) excluded from
	// differential encoding. Reserved register i is encoded directly
	// with code DiffN+i and does not update last_reg. The total code
	// space DiffN+len(Reserved) determines DiffW.
	Reserved []int
	// ClassOf partitions registers into classes (§9.1); each class has
	// an independent last_reg. Nil means a single class.
	ClassOf func(reg int) int
	// DstFirst flips the nominal access order within an instruction to
	// dst, src1, src2 (§9.4 lists flexible access orders as a design
	// alternative; the default matches the paper's src1, src2 ... dst).
	DstFirst bool
	// PerInstruction updates last_reg once per instruction instead of
	// once per register field (§9.4's other alternative): every field
	// of an instruction is encoded as a difference against the value
	// last_reg held when the instruction's decode began, and last_reg
	// then advances to the instruction's final register field.
	PerInstruction bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.RegN < 2 {
		return fmt.Errorf("diffenc: RegN = %d, need >= 2", c.RegN)
	}
	if c.DiffN < 1 || c.DiffN > c.RegN {
		return fmt.Errorf("diffenc: DiffN = %d outside [1, RegN=%d]", c.DiffN, c.RegN)
	}
	seen := map[int]bool{}
	for _, r := range c.Reserved {
		if r < 0 || r >= c.RegN {
			return fmt.Errorf("diffenc: reserved register %d outside [0, %d)", r, c.RegN)
		}
		if seen[r] {
			return fmt.Errorf("diffenc: reserved register %d listed twice", r)
		}
		seen[r] = true
	}
	return nil
}

func (c Config) classOf(reg int) int {
	if c.ClassOf == nil {
		return 0
	}
	return c.ClassOf(reg)
}

// numClasses is the size of the dense per-class rows the encoder and
// the Decoder keep: one more than the largest class of any register.
func (c Config) numClasses() int {
	n := 1
	if c.ClassOf != nil {
		for r := 0; r < c.RegN; r++ {
			if k := c.classOf(r) + 1; k > n {
				n = k
			}
		}
	}
	return n
}

func (c Config) reservedCode(reg int) (int, bool) {
	for i, r := range c.Reserved {
		if r == reg {
			return c.DiffN + i, true
		}
	}
	return 0, false
}

// Log2Ceil returns ceil(log2(n)) for n >= 1.
func Log2Ceil(n int) int {
	w := 0
	for (1 << w) < n {
		w++
	}
	return w
}

// RegW returns the field width of direct encoding: ceil(log2 RegN).
func (c Config) RegW() int { return Log2Ceil(c.RegN) }

// DiffW returns the field width of differential encoding:
// ceil(log2(DiffN + reserved codes)).
func (c Config) DiffW() int { return Log2Ceil(c.DiffN + len(c.Reserved)) }

// Diff computes the encoded difference from register prev to register
// cur under modulo RegN (Definition 1 / Equation 1 of the paper): the
// clockwise hop count from prev to cur on the register circle.
func Diff(prev, cur, regN int) int {
	d := (cur - prev) % regN
	if d < 0 {
		d += regN
	}
	return d
}

// Step decodes one field: the register named by difference d when the
// previous access was prev (Equation 2).
func Step(prev, d, regN int) int {
	return (prev + d) % regN
}

// EncodeSequence differentially encodes a straight-line register
// access sequence starting from last_reg = 0. It returns one encoded
// code per access plus the set_last_reg repairs required for
// out-of-range differences: repairs[i] gives the value written to
// last_reg immediately before access i is decoded. This is the §2
// scheme in its purest form, used by the examples and property tests;
// Encode handles full control flow.
func EncodeSequence(regs []int, cfg Config) (codes []int, repairs map[int]int, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	repairs = make(map[int]int)
	last := make(map[int]int) // per-class last_reg, initially 0
	for i, r := range regs {
		if r < 0 || r >= cfg.RegN {
			return nil, nil, fmt.Errorf("diffenc: register %d outside [0, %d)", r, cfg.RegN)
		}
		if code, ok := cfg.reservedCode(r); ok {
			codes = append(codes, code)
			continue
		}
		cls := cfg.classOf(r)
		d := Diff(last[cls], r, cfg.RegN)
		if d >= cfg.DiffN {
			// Repair: set_last_reg(r) right before this field; the
			// field then encodes difference 0.
			repairs[i] = r
			d = 0
		}
		codes = append(codes, d)
		last[cls] = r
	}
	return codes, repairs, nil
}

// DecodeSequence inverts EncodeSequence through a Decoder, one access
// per instruction. classes[i] names the register class of access i; in
// hardware the class of an operand slot is known from the opcode before
// the register number is decoded (§9.1). Pass nil for single-class
// configurations.
func DecodeSequence(codes []int, repairs map[int]int, classes []int, cfg Config) ([]int, error) {
	d, err := NewDecoder(cfg)
	if err != nil {
		return nil, err
	}
	if classes != nil && len(classes) != len(codes) {
		return nil, fmt.Errorf("diffenc: %d classes for %d codes", len(classes), len(codes))
	}
	regs := make([]int, len(codes))
	for i := range codes {
		if v, ok := repairs[i]; ok {
			d.SetLastReg(v)
		}
		var cls []int
		if classes != nil {
			cls = classes[i : i+1]
		}
		if err := d.decode(codes[i:i+1], cls, regs[i:i+1], false); err != nil {
			return nil, err
		}
	}
	return regs, nil
}
