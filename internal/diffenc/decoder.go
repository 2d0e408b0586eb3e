package diffenc

import "fmt"

// Decoder models the hardware decode stage of §2.1: one last_reg
// register per class plus small modulo adders. Two implementations are
// provided, matching the paper's discussion:
//
//   - DecodeInstr decodes the register fields of one instruction
//     sequentially, each field's result feeding the next (Equation 2);
//   - DecodeInstrParallel decodes all fields in one step with prefix
//     modulo adders (n1 = last+d1, n2 = last+d1+d2, ...), the form the
//     paper proposes to keep decode off the critical path.
//
// Both honour Config.PerInstruction (§9.4) and the delayed form of
// set_last_reg (§2.3), and they must be observationally identical; the
// property test in decoder_test.go checks that on random field
// streams. The Decoder is the package's one decode rule: Check,
// DecodeSequence and difftest's stream decoder all decode through it.
type Decoder struct {
	cfg Config
	// last is the per-class last_reg row. Check writes -1 for a class
	// whose incoming paths disagree; decoding that class then fails.
	last []int
	// anchor, sum and fin are per-instruction scratch rows: the value
	// a class's adder starts from (last_reg, or a set that landed
	// mid-instruction), the parallel adder's prefix sum since that
	// anchor, and in PerInstruction mode the class's final field
	// (-1: none yet).
	anchor, sum, fin []int
	// pending holds delayed sets in fetch order.
	pending []pendingSet
	// err is the first invalid set_last_reg; every later decode
	// reports it.
	err error
}

// pendingSet is a delayed set_last_reg: it lands after delay register
// fields of the next instruction that has fields are decoded, or once
// that instruction is fully decoded when delay reaches its field count.
type pendingSet struct{ value, delay int }

// NewDecoder builds a decoder with every class's last_reg reset to 0.
func NewDecoder(cfg Config) (*Decoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nc := cfg.numClasses()
	rows := make([]int, 4*nc)
	return &Decoder{
		cfg:    cfg,
		last:   rows[:nc:nc],
		anchor: rows[nc : 2*nc : 2*nc],
		sum:    rows[2*nc : 3*nc : 3*nc],
		fin:    rows[3*nc:],
	}, nil
}

// SetLastReg models the set_last_reg instruction's immediate form: it
// writes value into the last_reg of value's class.
func (d *Decoder) SetLastReg(value int) {
	if d.validSet(value) {
		d.last[d.cfg.classOf(value)] = value
	}
}

// SetLastRegDelayed models set_last_reg(value, delay): the write lands
// after delay register fields of the next instruction that has
// register fields are decoded; a delay at or beyond that instruction's
// field count lands once it is fully decoded. An instruction without
// register fields (a jump, a void return) leaves the set waiting. A
// negative delay is the immediate form.
func (d *Decoder) SetLastRegDelayed(value, delay int) {
	if delay < 0 {
		d.SetLastReg(value)
		return
	}
	if d.validSet(value) {
		d.pending = append(d.pending, pendingSet{value, delay})
	}
}

// validSet reports whether value names a register; the first value
// that does not becomes the error of every later decode.
func (d *Decoder) validSet(value int) bool {
	if value >= 0 && value < d.cfg.RegN {
		return true
	}
	if d.err == nil {
		d.err = fmt.Errorf("diffenc: set_last_reg value %d outside [0, %d)", value, d.cfg.RegN)
	}
	return false
}

// LastReg exposes the current last_reg of a class (for tests and
// context-switch save/restore, §9.3: "only the last_reg should be
// stored together with the context").
func (d *Decoder) LastReg(class int) int {
	if class < 0 || class >= len(d.last) {
		return 0
	}
	return d.last[class]
}

// DecodeInstr decodes one instruction's register fields sequentially.
// classes[i] names the register class of field i (nil: single class),
// known to hardware from the opcode before register decode (§9.1).
func (d *Decoder) DecodeInstr(codes []int, classes []int) ([]int, error) {
	regs := make([]int, len(codes))
	if err := d.decode(codes, classes, regs, false); err != nil {
		return nil, err
	}
	return regs, nil
}

// DecodeInstrParallel decodes all fields of one instruction in a
// single combinational step: for each class, field k's register is
// last_reg plus the prefix sum of that class's differences up to k
// (mod RegN). Reserved codes contribute nothing to any prefix, and a
// set landing mid-instruction restarts its class's prefix.
func (d *Decoder) DecodeInstrParallel(codes []int, classes []int) ([]int, error) {
	regs := make([]int, len(codes))
	if err := d.decode(codes, classes, regs, true); err != nil {
		return nil, err
	}
	return regs, nil
}

// decode resolves one instruction's fields into regs with the
// sequential or the parallel adder. A rejected instruction leaves the
// decoder unchanged.
func (d *Decoder) decode(codes, classes, regs []int, parallel bool) error {
	if d.err != nil {
		return d.err
	}
	if classes != nil && len(classes) < len(codes) {
		return fmt.Errorf("diffenc: %d field classes for %d codes", len(classes), len(codes))
	}
	for k, code := range codes {
		if code < 0 || code >= d.cfg.DiffN+len(d.cfg.Reserved) {
			return fmt.Errorf("diffenc: field code %d out of range", code)
		}
		if c := classOfField(classes, k); c < 0 || c >= len(d.last) {
			return fmt.Errorf("diffenc: field %d names class %d outside [0, %d)", k, c, len(d.last))
		}
	}
	n := len(codes)
	if n == 0 {
		return nil
	}
	regN := d.cfg.RegN
	anchor, sum, fin := d.anchor, d.sum, d.fin
	copy(anchor, d.last)
	for c := range sum {
		sum[c], fin[c] = 0, -1
	}
	// land applies the pending sets due at field position k; at k == n
	// it takes every set whose delay reaches the field count, and the
	// set then outlasts the instruction's final field.
	land := func(k int) {
		for _, p := range d.pending {
			if p.delay == k || (k == n && p.delay > n) {
				c := d.cfg.classOf(p.value)
				anchor[c], sum[c] = p.value, 0
				if k == n {
					fin[c] = -1
				}
			}
		}
	}
	for k, code := range codes {
		land(k)
		if code >= d.cfg.DiffN {
			regs[k] = d.cfg.Reserved[code-d.cfg.DiffN]
			continue
		}
		c := classOfField(classes, k)
		if anchor[c] < 0 {
			return fmt.Errorf("diffenc: field %d: last_reg of class %d differs between incoming paths (multi-path inconsistency unrepaired)", k, c)
		}
		switch {
		case d.cfg.PerInstruction:
			// Every field diffs against the same anchor; last_reg
			// advances to the class's final field afterwards.
			regs[k] = Step(anchor[c], code, regN)
			fin[c] = regs[k]
		case parallel:
			sum[c] = (sum[c] + code) % regN
			regs[k] = Step(anchor[c], sum[c], regN)
		default:
			anchor[c] = Step(anchor[c], code, regN)
			regs[k] = anchor[c]
		}
	}
	land(n)
	d.pending = d.pending[:0]
	for c, a := range anchor {
		switch {
		case fin[c] >= 0:
			d.last[c] = fin[c]
		case sum[c] != 0:
			d.last[c] = Step(a, sum[c], regN)
		default:
			d.last[c] = a
		}
	}
	return nil
}

func classOfField(classes []int, i int) int {
	if classes == nil {
		return 0
	}
	return classes[i]
}
