package diffenc

import (
	"fmt"
	"sort"

	"diffra/internal/ir"
	"diffra/internal/scratch"
)

// fieldsOf returns an instruction's register fields in the configured
// access order.
func fieldsOf(in *ir.Instr, cfg Config) []ir.Reg {
	if !cfg.DstFirst {
		return in.RegFields()
	}
	if in.Op == ir.OpSetLastReg {
		return nil
	}
	fields := make([]ir.Reg, 0, len(in.Defs)+len(in.Uses))
	fields = append(fields, in.Defs...)
	fields = append(fields, in.Uses...)
	return fields
}

// FieldsOf returns an instruction's register fields in the configured
// access order — the exact operand stream the encoder walks and a
// decoder consumes. Exported for the difftest stream decoders, which
// must agree with the encoder field-for-field.
func (c Config) FieldsOf(in *ir.Instr) []ir.Reg { return fieldsOf(in, c) }

// Class returns reg's register class (0 when ClassOf is nil).
func (c Config) Class(reg int) int { return c.classOf(reg) }

// SetReason classifies why a set_last_reg repair was inserted — the
// two failure modes of plain differential encoding (§2.3).
type SetReason uint8

const (
	// ReasonRange repairs an out-of-range difference: the hop from the
	// previous access to this one is >= DiffN.
	ReasonRange SetReason = iota
	// ReasonJoin repairs multi-path inconsistency: a control-flow join
	// whose predecessors leave different values in last_reg.
	ReasonJoin
)

// String names the reason for reports.
func (r SetReason) String() string {
	switch r {
	case ReasonRange:
		return "out-of-range"
	case ReasonJoin:
		return "join"
	}
	return "unknown"
}

// JoinSource records one predecessor whose last_reg out-value
// disagreed with the repair target at a join.
type JoinSource struct {
	Pred *ir.Block
	// Last is the last_reg value the predecessor leaves behind.
	Last int
}

// SetPoint is a planned set_last_reg insertion. Block/Before/Field
// locate the repair in pre-insertion coordinates (the function as it
// was when Encode ran, before ApplyToIR shifted instruction indices).
type SetPoint struct {
	Block *ir.Block
	// Before is the instruction index the set precedes.
	Before int
	// Value is written into last_reg.
	Value int
	// Delay is the number of register fields of the following
	// instruction decoded before the set takes effect; -1 for
	// immediate (the one-argument form).
	Delay int

	// Attribution: why this repair exists (surfaced by Explain and the
	// -explain-slr report).
	Reason SetReason
	// Field is the register-field index (within the instruction at
	// Before) whose difference was out of range; -1 for join repairs.
	Field int
	// Prev is the last_reg value in effect before the out-of-range
	// field was encoded; -1 for join repairs.
	Prev int
	// Class is the register class being repaired.
	Class int
	// Disagree lists, for join repairs, the predecessors whose
	// last_reg out-values conflicted (empty for range repairs).
	Disagree []JoinSource
}

// EffectiveField returns the field index of the instruction at Before
// at which the set takes effect: 0 for the immediate form (Delay < 0),
// Delay otherwise. A value equal to the instruction's field count
// means the set applies after the instruction is fully decoded.
func (s SetPoint) EffectiveField() int {
	if s.Delay < 0 {
		return 0
	}
	return s.Delay
}

// OrderSets sorts a block's planned sets in place into hardware decode
// order: ascending (Before, EffectiveField, Class), ties keeping the
// encoder's emission order. This single ordering is shared by the
// checker (which consumes sets at their decode positions), ApplyToIR
// (which must lay them out in the instruction stream so a decoder
// consuming the stream front-to-back applies them in exactly this
// order), the listing renderer, and the difftest stream decoders — if
// any of those ordered sets differently, a multi-set repair point
// could decode correctly under one consumer and diverge under another.
func OrderSets(sets []SetPoint) {
	sort.SliceStable(sets, func(i, j int) bool {
		if sets[i].Before != sets[j].Before {
			return sets[i].Before < sets[j].Before
		}
		if ei, ej := sets[i].EffectiveField(), sets[j].EffectiveField(); ei != ej {
			return ei < ej
		}
		return sets[i].Class < sets[j].Class
	})
}

// Result is the outcome of Encode.
type Result struct {
	Cfg Config
	// Codes[i] is the encoded field value for the i-th register field
	// in access order (blocks in layout order, instructions in order,
	// fields in Config.FieldsOf order): a difference in [0, DiffN) or
	// a reserved code.
	Codes []int
	// Sets lists the planned set_last_reg instructions; Cost == len(Sets).
	Sets []SetPoint
	// JoinSets counts the subset of Sets repairing multi-path
	// inconsistency; the rest repair out-of-range differences.
	JoinSets int
}

// Cost returns the number of set_last_reg instructions, the extra-cost
// metric of the paper's figures 12–13.
func (r *Result) Cost() int { return len(r.Sets) }

// RangeSets counts the subset of Sets repairing out-of-range
// differences (Cost() == RangeSets() + JoinSets).
func (r *Result) RangeSets() int { return len(r.Sets) - r.JoinSets }

// lattice for the reaching-last_reg analysis.
const (
	lUnknown  = -1
	lConflict = -2
)

// forEachField visits in's register fields in cfg's access order,
// calling fn with the field index and operand — the iteration
// RegFields/fieldsOf materialize a slice for, without the slice. The
// encoder's hot walks run on this.
func forEachField(in *ir.Instr, cfg Config, fn func(k int, r ir.Reg)) {
	if in.Op == ir.OpSetLastReg {
		return
	}
	k := 0
	if cfg.DstFirst {
		for _, r := range in.Defs {
			fn(k, r)
			k++
		}
		for _, r := range in.Uses {
			fn(k, r)
			k++
		}
		return
	}
	for _, r := range in.Uses {
		fn(k, r)
		k++
	}
	for _, r := range in.Defs {
		fn(k, r)
		k++
	}
}

// fieldCount is len(cfg.FieldsOf(in)) without building the slice; the
// count is access-order independent.
func fieldCount(in *ir.Instr) int {
	if in.Op == ir.OpSetLastReg {
		return 0
	}
	return len(in.Uses) + len(in.Defs)
}

// Encode plans differential encoding for an allocated function. regOf
// maps each operand to its machine register in [0, cfg.RegN). The
// initial last_reg is 0 for every class (the paper's n0 = 0).
//
// Joins whose predecessors disagree on last_reg get a set_last_reg at
// the block head (value = the block's first accessed register of the
// conflicting class, so the first field encodes difference 0).
// Out-of-range differences get a set_last_reg before the instruction
// with the field's index as decode delay, and the field encodes 0.
func Encode(f *ir.Func, regOf func(ir.Reg) int, cfg Config) (*Result, error) {
	return EncodeScratch(f, regOf, cfg, nil)
}

// EncodeScratch is Encode with the dataflow working state — the
// per-block last_reg rows and the walk scratch — carved from ar (nil:
// a private arena, equivalent to Encode). The returned Result is
// always heap-allocated and survives any later arena Reset.
func EncodeScratch(f *ir.Func, regOf func(ir.Reg) int, cfg Config, ar *scratch.Arena) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ar == nil {
		ar = new(scratch.Arena)
	}

	// Validate every access (the first offender in access order wins)
	// and count fields so Codes is allocated exactly once.
	nf := 0
	var verr error
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			forEachField(in, cfg, func(k int, vr ir.Reg) {
				nf++
				if r := regOf(vr); (r < 0 || r >= cfg.RegN) && verr == nil {
					verr = fmt.Errorf("diffenc: %s instr %d field %d: register %d outside [0, %d)",
						b.Name, i, k, r, cfg.RegN)
				}
			})
		}
	}
	if verr != nil {
		return nil, verr
	}

	// The class space is dense: rows of ncls ints replace the old
	// class-keyed maps. Values are machine registers (>= 0) or the
	// lattice sentinels.
	ncls := 1
	if cfg.ClassOf != nil {
		for r := 0; r < cfg.RegN; r++ {
			if c := cfg.classOf(r) + 1; c > ncls {
				ncls = c
			}
		}
	}
	nb := len(f.Blocks)
	// lastIn[b*ncls+cls] is the reaching last_reg; needsSet rows record
	// planned head sets (-1 absent), pinning the class's in-value.
	lastIn := ar.Ints(nb * ncls)
	needsSet := ar.Ints(nb * ncls)
	for i := range lastIn {
		lastIn[i] = lUnknown
		needsSet[i] = -1
	}
	rowOf := func(rows []int, b *ir.Block) []int {
		return rows[b.Index*ncls : (b.Index+1)*ncls]
	}
	pout := ar.Ints(ncls)

	// blockOut simulates b's effect on the last_reg state into dst.
	blockOut := func(b *ir.Block, dst []int) {
		copy(dst, rowOf(lastIn, b))
		for _, in := range b.Instrs {
			forEachField(in, cfg, func(_ int, vr ir.Reg) {
				r := regOf(vr)
				if _, ok := cfg.reservedCode(r); ok {
					return // reserved registers do not touch last_reg
				}
				dst[cfg.classOf(r)] = r
			})
		}
	}

	// chosen returns the head-set value for a conflicted class in b:
	// the first register of that class accessed in b (so that field
	// encodes difference 0), falling back to the smallest non-reserved
	// register OF THAT CLASS. The fallback must stay inside the class:
	// set_last_reg(v) writes the last_reg of v's class, so a
	// fallback of plain 0 would silently repair classOf(0) instead of
	// the conflicted class and leave the conflict live.
	chosen := func(b *ir.Block, cls int) int {
		found := -1
		for _, in := range b.Instrs {
			forEachField(in, cfg, func(_ int, vr ir.Reg) {
				if found >= 0 {
					return
				}
				r := regOf(vr)
				if _, ok := cfg.reservedCode(r); ok {
					return
				}
				if cfg.classOf(r) == cls {
					found = r
				}
			})
			if found >= 0 {
				return found
			}
		}
		for r := 0; r < cfg.RegN; r++ {
			if _, ok := cfg.reservedCode(r); ok {
				continue
			}
			if cfg.classOf(r) == cls {
				return r
			}
		}
		return 0
	}

	entry := f.Entry()
	// Class 0 and every class accessed anywhere start at the reset
	// value 0 (the paper's n0 = 0); untouched classes stay unknown.
	rowOf(lastIn, entry)[0] = 0
	if cfg.ClassOf != nil {
		ein := rowOf(lastIn, entry)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				forEachField(in, cfg, func(_ int, vr ir.Reg) {
					ein[cfg.classOf(regOf(vr))] = 0
				})
			}
		}
	}

	rpo := f.ReversePostorder()
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			in := rowOf(lastIn, b)
			pins := rowOf(needsSet, b)
			for _, p := range b.Preds {
				blockOut(p, pout)
				// The meet, ignoring classes pinned by a planned head set.
				for cls := 0; cls < ncls; cls++ {
					pv := pout[cls]
					if pv == lUnknown || pins[cls] >= 0 {
						continue
					}
					switch sv := in[cls]; {
					case sv == lUnknown:
						in[cls] = pv
						changed = true
					case sv == lConflict:
					case sv != pv:
						in[cls] = lConflict
						changed = true
					}
				}
			}
			for cls := 0; cls < ncls; cls++ {
				if in[cls] == lConflict {
					pins[cls] = chosen(b, cls)
					in[cls] = pins[cls]
					changed = true
				}
			}
		}
	}

	// Join-repair placement. A conflicted join can be repaired either
	// by one set at the block head (executed on every entry) or by a
	// set at the end of each disagreeing predecessor (the paper's §2.3
	// alternative: "insert such instruction at the end of one or more
	// predecessors"). Pick whichever executes less often; predecessor
	// placement requires the predecessor to have a single successor so
	// the repair cannot leak onto another path. The canonical win is a
	// loop header whose back edge already agrees: the repair moves to
	// the preheader and executes once instead of every iteration.
	res := &Result{Cfg: cfg, Codes: make([]int, 0, nf)}
	freq := f.BlockFreqs()
	for _, b := range f.Blocks {
		pins := rowOf(needsSet, b)
		// Ascending class order, as the old sort over the map's keys
		// produced.
		for cls := 0; cls < ncls; cls++ {
			v := pins[cls]
			if v < 0 {
				continue
			}
			var disagree []JoinSource
			edgeOK := true
			edgeFreq := 0.0
			for _, p := range b.Preds {
				blockOut(p, pout)
				pv := pout[cls]
				if pv < 0 {
					pv = 0
				}
				if pv == v {
					continue
				}
				disagree = append(disagree, JoinSource{Pred: p, Last: pv})
				edgeFreq += freq[p.Index]
				if len(p.Succs) != 1 || len(p.Instrs) == 0 {
					edgeOK = false
				}
			}
			if edgeOK && len(disagree) > 0 && edgeFreq < freq[b.Index] {
				for _, src := range disagree {
					p := src.Pred
					delay := fieldCount(p.Terminator())
					if delay == 0 {
						delay = -1
					}
					res.Sets = append(res.Sets, SetPoint{
						Block: p, Before: len(p.Instrs) - 1, Value: v, Delay: delay,
						Reason: ReasonJoin, Field: -1, Prev: -1, Class: cls,
						Disagree: []JoinSource{src},
					})
					res.JoinSets++
				}
			} else {
				res.Sets = append(res.Sets, SetPoint{
					Block: b, Before: 0, Value: v, Delay: -1,
					Reason: ReasonJoin, Field: -1, Prev: -1, Class: cls,
					Disagree: disagree,
				})
				res.JoinSets++
			}
		}
	}

	// Encoding walk. cur/base/instrLast are reused ncls rows; -1 marks
	// an absent entry (real values are registers >= 0).
	cur := ar.Ints(ncls)
	base := ar.Ints(ncls)
	instrLast := ar.Ints(ncls)
	for _, b := range f.Blocks {
		copy(cur, rowOf(lastIn, b))
		// Conflicted classes enter pinned regardless of where their
		// repair was placed.
		pins := rowOf(needsSet, b)
		for cls := 0; cls < ncls; cls++ {
			if pins[cls] >= 0 {
				cur[cls] = pins[cls]
			}
		}
		for i, in := range b.Instrs {
			// Per-instruction mode (§9.4): every field diffs against
			// the class's last_reg as of instruction start (possibly
			// overridden by a mid-instruction repair set); last_reg
			// advances to the class's final field afterwards.
			if cfg.PerInstruction {
				for cls := 0; cls < ncls; cls++ {
					base[cls] = -1
					instrLast[cls] = -1
				}
			}
			forEachField(in, cfg, func(k int, vr ir.Reg) {
				r := regOf(vr)
				if code, ok := cfg.reservedCode(r); ok {
					res.Codes = append(res.Codes, code)
					return
				}
				cls := cfg.classOf(r)
				// Untouched/unknown classes resolve to the reset value 0.
				prev := cur[cls]
				if prev < 0 {
					prev = 0
				}
				if cfg.PerInstruction {
					if base[cls] >= 0 {
						prev = base[cls]
					} else {
						base[cls] = prev
					}
				}
				d := Diff(prev, r, cfg.RegN)
				if d >= cfg.DiffN {
					delay := k
					if k == 0 {
						delay = -1
					}
					res.Sets = append(res.Sets, SetPoint{
						Block: b, Before: i, Value: r, Delay: delay,
						Reason: ReasonRange, Field: k, Prev: prev, Class: cls,
					})
					d = 0
					if cfg.PerInstruction {
						base[cls] = r
					}
				}
				res.Codes = append(res.Codes, d)
				if cfg.PerInstruction {
					instrLast[cls] = r
				} else {
					cur[cls] = r
				}
			})
			if cfg.PerInstruction {
				for cls := 0; cls < ncls; cls++ {
					if instrLast[cls] >= 0 {
						cur[cls] = instrLast[cls]
					}
				}
			}
		}
	}
	return res, nil
}

// ApplyToIR inserts the planned set_last_reg instructions into f
// (mutating it). Within a block the sets are laid out in OrderSets
// decode order; insertion proceeds from the back so recorded indices
// stay valid. (An unordered insertion is a real hazard: two sets at
// the same Before — say a join repair and a delayed range repair —
// would otherwise land in the stream in arbitrary order, and a decoder
// consuming the stream would apply them in an order the checker never
// validated.)
func (r *Result) ApplyToIR(f *ir.Func) {
	perBlock := map[*ir.Block][]SetPoint{}
	for _, s := range r.Sets {
		perBlock[s.Block] = append(perBlock[s.Block], s)
	}
	for b, sets := range perBlock {
		OrderSets(sets)
		// Reverse iteration over the decode order: each insertion at
		// Before pushes previously inserted same-Before sets down, so
		// the final stream reads in exactly OrderSets order.
		for i := len(sets) - 1; i >= 0; i-- {
			s := sets[i]
			b.InsertBefore(s.Before, &ir.Instr{
				Op:   ir.OpSetLastReg,
				Imm:  int64(s.Value),
				Imm2: int64(s.Delay),
			})
		}
	}
}
