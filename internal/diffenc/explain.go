package diffenc

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"diffra/internal/ir"
)

// Explain writes the set_last_reg attribution report: every planned
// repair with its location, value and reason — the data behind the
// paper's "where does the differential cost come from" discussion and
// the CLI's -explain-slr flag.
//
// Locations are block:instr in pre-insertion coordinates (instruction
// indices of the function as Encode saw it, before ApplyToIR shifted
// them); fname names the function in the header.
func Explain(w io.Writer, fname string, res *Result) {
	fmt.Fprintf(w, "set_last_reg report for %s: %d repairs (%d out-of-range, %d join)\n",
		fname, res.Cost(), res.RangeSets(), res.JoinSets)
	if len(res.Sets) == 0 {
		return
	}

	sets := append([]SetPoint(nil), res.Sets...)
	sort.SliceStable(sets, func(i, j int) bool {
		if sets[i].Block.Index != sets[j].Block.Index {
			return sets[i].Block.Index < sets[j].Block.Index
		}
		if sets[i].Before != sets[j].Before {
			return sets[i].Before < sets[j].Before
		}
		return sets[i].EffectiveField() < sets[j].EffectiveField()
	})

	for _, s := range sets {
		loc := fmt.Sprintf("%s:%d", s.Block.Name, s.Before)
		var why string
		switch s.Reason {
		case ReasonRange:
			why = fmt.Sprintf("out-of-range: diff(R%d -> R%d) = %d >= DiffN=%d (field %d)",
				s.Prev, s.Value, Diff(s.Prev, s.Value, res.Cfg.RegN), res.Cfg.DiffN, s.Field)
		case ReasonJoin:
			parts := make([]string, 0, len(s.Disagree))
			for _, d := range s.Disagree {
				parts = append(parts, fmt.Sprintf("%s leaves R%d", d.Pred.Name, d.Last))
			}
			detail := strings.Join(parts, ", ")
			if detail == "" {
				detail = "predecessors disagree"
			}
			if len(s.Disagree) == 1 && s.Disagree[0].Pred == s.Block {
				// Repair hoisted out of the join into the disagreeing
				// predecessor (the §2.3 alternative placement).
				why = fmt.Sprintf("join (repaired in predecessor): %s, successor needs R%d", detail, s.Value)
			} else {
				why = fmt.Sprintf("join: %s, block needs R%d", detail, s.Value)
			}
		default:
			why = s.Reason.String()
		}
		set := fmt.Sprintf("set_last_reg %d", s.Value)
		if s.Delay >= 0 {
			set = fmt.Sprintf("set_last_reg %d, %d", s.Value, s.Delay)
		}
		if res.Cfg.ClassOf != nil {
			why += fmt.Sprintf(" [class %d]", s.Class)
		}
		fmt.Fprintf(w, "  %-10s %-22s %s\n", loc, set, why)
	}
}

// ExplainString is Explain into a string.
func ExplainString(fname string, res *Result) string {
	var sb strings.Builder
	Explain(&sb, fname, res)
	return sb.String()
}

// AppliedListing renders a disassembler-style view of an encoded
// function to which the plan has already been applied (set_last_reg
// instructions present in the instruction stream): each instruction
// with its machine registers and, in a second column, the differential
// field codes the decoder will see. The repairs print from the stream
// itself, and the code annotations consume the same code sequence,
// which set_last_reg instructions do not perturb (they have no register
// fields). Intended for humans inspecting what the encoder did
// (cmd/diffra -listing).
func AppliedListing(f *ir.Func, regOf func(ir.Reg) int, cfg Config, res *Result) string {
	var sb strings.Builder
	ci := 0
	fmt.Fprintf(&sb, "; %s — RegN=%d DiffN=%d (fields: %d bits differential vs %d direct)\n",
		f.Name, cfg.RegN, cfg.DiffN, cfg.DiffW(), cfg.RegW())
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Name)
		for _, in := range b.Instrs {
			if in.Op == ir.OpSetLastReg {
				fmt.Fprintf(&sb, "  %-34s ; decoder repair\n", in.String())
				continue
			}
			flds := fieldsOf(in, cfg)
			codes := make([]string, len(flds))
			for k, r := range flds {
				c := res.Codes[ci]
				ci++
				if c >= cfg.DiffN {
					codes[k] = fmt.Sprintf("R%d=#%d", regOf(r), c)
				} else {
					codes[k] = fmt.Sprintf("R%d=+%d", regOf(r), c)
				}
			}
			line := machineString(in, regOf)
			if len(codes) > 0 {
				fmt.Fprintf(&sb, "  %-34s ; %s\n", line, strings.Join(codes, " "))
			} else {
				fmt.Fprintf(&sb, "  %s\n", line)
			}
		}
	}
	return sb.String()
}

// machineString prints an instruction with machine register names.
// Distinct vregs are rewritten longest-number-first so that v1 never
// clobbers the prefix of v12.
func machineString(in *ir.Instr, regOf func(ir.Reg) int) string {
	s := in.String()
	seen := map[ir.Reg]bool{}
	var regs []ir.Reg
	for _, r := range append(append([]ir.Reg(nil), in.Defs...), in.Uses...) {
		if !seen[r] {
			seen[r] = true
			regs = append(regs, r)
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] > regs[j] })
	for _, r := range regs {
		s = strings.ReplaceAll(s, fmt.Sprintf("v%d", r), fmt.Sprintf("R%d", regOf(r)))
	}
	return s
}
