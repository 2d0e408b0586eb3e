package diffenc

import (
	"fmt"
	"slices"

	"diffra/internal/ir"
)

// Check verifies an encoding result independently of the encoder's own
// join analysis: it decodes every reached block through a Decoder, from
// an in-state that is the meet of its predecessors' last_reg rows (a
// class whose incoming paths disagree is -1, and decoding it fails),
// feeds the block's planned set_last_reg instructions in at their
// OrderSets decode positions, and confirms every decoded register
// equals the allocated one. This is the package's ground-truth test
// that the hardware decoder of §2 would reproduce the program exactly
// on every CFG path.
//
// A delayed set still waiting when control leaves a block lands in the
// successor, where the stream decoder would land it.
func Check(f *ir.Func, regOf func(ir.Reg) int, cfg Config, res *Result) error {
	d, err := NewDecoder(cfg)
	if err != nil {
		return err
	}
	nb := len(f.Blocks)

	// codeAt[b] is block b's offset into the code stream.
	codeAt := make([]int, nb+1)
	maxFields := 0
	for _, b := range f.Blocks {
		n := 0
		for _, in := range b.Instrs {
			k := fieldCount(in)
			n += k
			maxFields = max(maxFields, k)
		}
		codeAt[b.Index+1] = codeAt[b.Index] + n
	}
	if total := codeAt[nb]; total > len(res.Codes) {
		return fmt.Errorf("diffenc: code stream too short")
	} else if total < len(res.Codes) {
		return fmt.Errorf("diffenc: code stream has %d extra codes", len(res.Codes)-total)
	}

	// Sets grouped by block (a stable counting sort), each group in
	// OrderSets decode order, the order ApplyToIR lays them out in.
	setAt := make([]int, nb+1)
	for _, s := range res.Sets {
		if b := f.Blocks[s.Block.Index]; s.Before < 0 || s.Before >= len(b.Instrs) {
			return fmt.Errorf("diffenc: set_last_reg at %s:%d outside the block's %d instructions",
				b.Name, s.Before, len(b.Instrs))
		}
		setAt[s.Block.Index+1]++
	}
	for i := 0; i < nb; i++ {
		setAt[i+1] += setAt[i]
	}
	sets := make([]SetPoint, len(res.Sets))
	next := append([]int(nil), setAt[:nb]...)
	for _, s := range res.Sets {
		sets[next[s.Block.Index]] = s
		next[s.Block.Index]++
	}
	for i := 0; i < nb; i++ {
		if setAt[i+1]-setAt[i] > 1 {
			OrderSets(sets[setAt[i]:setAt[i+1]])
		}
	}

	// A block's in-state is one variant per distinct list of delayed
	// sets waiting on entry (none waiting, unless a set precedes a
	// jump), each with its own row: the meet of the last_reg rows that
	// reach the block with those sets waiting. The entry starts at the
	// reset value 0 in every class with nothing waiting.
	type inState struct {
		row  []int
		pend []pendingSet
		next *inState
	}
	nc := len(d.last)
	rows := make([]int, nb*nc)
	ins := make([]inState, nb)
	ins[f.Entry().Index].row = rows[f.Entry().Index*nc:][:nc]
	classes := make([]int, 3*maxFields)
	want, got := classes[maxFields:2*maxFields], classes[2*maxFields:]

	// walk decodes b from d's state, leaving b's out-state in d.
	walk := func(b *ir.Block) error {
		bs := sets[setAt[b.Index]:setAt[b.Index+1]]
		ci := codeAt[b.Index]
		for ii, instr := range b.Instrs {
			for ; len(bs) > 0 && bs[0].Before == ii; bs = bs[1:] {
				d.SetLastRegDelayed(bs[0].Value, bs[0].Delay)
			}
			n := 0
			forEachField(instr, cfg, func(k int, vr ir.Reg) {
				want[k] = regOf(vr)
				classes[k] = cfg.classOf(want[k])
				n++
			})
			if err := d.decode(res.Codes[ci:ci+n], classes[:n], got[:n], false); err != nil {
				return fmt.Errorf("%w (at %s instr %d)", err, b.Name, ii)
			}
			for k := 0; k < n; k++ {
				if got[k] != want[k] {
					return fmt.Errorf("diffenc: %s instr %d field %d: decoded R%d, want R%d (code %d)",
						b.Name, ii, k, got[k], want[k], res.Codes[ci+k])
				}
			}
			ci += n
		}
		if d.err != nil {
			return fmt.Errorf("%w (at %s)", d.err, b.Name)
		}
		if len(d.pending) > len(res.Sets) {
			return fmt.Errorf("diffenc: delayed set_last_reg waits forever on a cycle without register fields through %s", b.Name)
		}
		return nil
	}

	rpo := f.ReversePostorder()
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			for v := &ins[b.Index]; v != nil && v.row != nil; v = v.next {
				copy(d.last, v.row)
				d.pending = append(d.pending[:0], v.pend...)
				if err := walk(b); err != nil {
					return err
				}
				for _, s := range b.Succs {
					sv := &ins[s.Index]
					if sv.row == nil {
						sv.row = rows[s.Index*nc : (s.Index+1)*nc]
						copy(sv.row, d.last)
						sv.pend = slices.Clone(d.pending)
						changed = true
						continue
					}
					for sv.next != nil && !slices.Equal(sv.pend, d.pending) {
						sv = sv.next
					}
					if !slices.Equal(sv.pend, d.pending) {
						sv.next = &inState{row: slices.Clone(d.last), pend: slices.Clone(d.pending)}
						changed = true
						continue
					}
					for c, x := range d.last {
						if sv.row[c] != x && sv.row[c] != -1 {
							sv.row[c] = -1
							changed = true
						}
					}
				}
			}
		}
	}
	return nil
}
