package ospill

import (
	"math/bits"
	"slices"

	"diffra/internal/bitset"
	"diffra/internal/ilp"
	"diffra/internal/ir"
	"diffra/internal/liveness"
	"diffra/internal/scratch"
)

// SpillProblem builds the covering instance for f with K registers:
// one constraint per program point whose live set exceeds K, demanding
// that at least pressure-K of the ranges live there be spilled.
// Duplicate points collapse into one constraint.
func SpillProblem(f *ir.Func, k int) ilp.Problem {
	p, _ := buildProblem(f, k, false, nil)
	return p
}

// ExtendedSpillProblem builds the covering instance with both
// full-range spill variables (0..NumRegs-1) and loop-spill variables
// (appended after). A full spill and any loop spill of the same range
// are mutually exclusive — both free the same register inside the
// loop, so paying for both must never count twice toward a pressure
// constraint.
func ExtendedSpillProblem(f *ir.Func, k int) (ilp.Problem, []LoopSpillCandidate) {
	return buildProblem(f, k, true, nil)
}

// buildProblem is the one builder behind both models: one liveness
// analysis and one walk over the program points — each block's entry,
// then the point after each instruction from the last up. A point
// whose live set exceeds k demands that pressure-k of the ranges live
// there be spilled. withLoops adds the loop candidates: a
// constraint in block b may also be covered, for live range v, by any
// loop spill (v, L) with b inside L; those variables follow the live
// ranges in the constraint.
//
// Constraints are kept in first-seen order, and a point whose (need,
// vars) repeats an earlier constraint adds nothing: points are hashed
// into an open-addressing table and compared exactly on a hash match.
// All constraint variables live in one flat slice. The liveness is
// carved from ar (nil: a private arena) and dead once the problem is
// built: the problem and the candidates are heap.
func buildProblem(f *ir.Func, k int, withLoops bool, ar *scratch.Arena) (ilp.Problem, []LoopSpillCandidate) {
	info := liveness.ComputeScratch(f, nil, ar)
	n := f.NumRegs()
	freq := f.BlockFreqs()
	var cands []LoopSpillCandidate
	if withLoops {
		cands = loopSpillCandidates(f, info, freq)
	}

	// Objective: the frequency-weighted Chaitin cost (the dynamic
	// spill overhead Appel & George minimize), with the static
	// occurrence count as a mild tiebreak so equally-hot candidates
	// prefer the one inserting fewer instructions. Loop candidates
	// cost their placement edges.
	costs := liveness.SpillCostsWeighted(f, freq, nil)
	occ := liveness.Occurrences(f)
	for v := range costs {
		costs[v] += occ[v] / float64(n+1)
	}
	p := ilp.Problem{Costs: costs}
	for _, c := range cands {
		p.Costs = append(p.Costs, c.Cost)
	}

	// The candidates of each range, in candidate order (a counting
	// sort by range): candIdx[candOff[v]:candOff[v+1]].
	var candOff, candIdx []int
	if len(cands) > 0 {
		buf := make([]int, n+1+len(cands))
		candOff, candIdx = buf[:n+1], buf[n+1:]
		for _, c := range cands {
			candOff[c.V]++
		}
		ranges := 0
		for v := 0; v < n; v++ {
			if candOff[v] > 0 {
				ranges++
			}
			candOff[v+1] += candOff[v]
		}
		for ci := len(cands) - 1; ci >= 0; ci-- {
			v := cands[ci].V
			candOff[v]--
			candIdx[candOff[v]] = ci
		}
		// One exclusivity group per range with candidates, by range:
		// the full spill first, then its loop spills.
		flat := make([]int, 0, ranges+len(cands))
		p.Exclusive = make([][]int, 0, ranges)
		for v := 0; v < n; v++ {
			if candOff[v] == candOff[v+1] {
				continue
			}
			start := len(flat)
			flat = append(flat, v)
			for _, ci := range candIdx[candOff[v]:candOff[v+1]] {
				flat = append(flat, n+ci)
			}
			p.Exclusive = append(p.Exclusive, flat[start:len(flat):len(flat)])
		}
	}
	inLoop := newLoopMembership(cands, len(f.Blocks))

	var t conTable
	words := (n + 63) / 64
	addPoint := func(b *ir.Block, live *bitset.Set) {
		cnt := live.Len()
		if cnt <= k {
			return
		}
		if t.vars == nil {
			t.vars = make([]int, 0, 16*cnt)
			t.spans = make([]conSpan, 0, 16)
		}
		start := len(t.vars)
		for wi := 0; wi < words; wi++ {
			for w := live.Word(wi); w != 0; w &= w - 1 {
				t.vars = append(t.vars, wi*64+bits.TrailingZeros64(w))
			}
		}
		if candOff != nil {
			for i := start; i < start+cnt; i++ {
				v := t.vars[i]
				for _, ci := range candIdx[candOff[v]:candOff[v+1]] {
					if inLoop.has(ci, b.Index) {
						t.vars = append(t.vars, n+ci)
					}
				}
			}
		}
		t.add(start, cnt-k)
	}
	for _, b := range f.Blocks {
		inLoop.enter(b.Index)
		addPoint(b, info.LiveIn[b.Index])
		info.LiveAcross(b, func(_ int, _ *ir.Instr, liveAfter *bitset.Set) {
			addPoint(b, liveAfter)
		})
	}
	p.Constraints = t.constraints()
	return p, cands
}

// conTable collects distinct constraints. Each constraint's variables
// are vars[start:end] of its span; slots is an open-addressing hash
// table of span index + 1 (0: empty), kept at most half full.
type conTable struct {
	vars  []int
	spans []conSpan
	slots []int32
}

type conSpan struct {
	start, end, need int
	hash             uint64
}

// add keeps vars[start:] with need as a new constraint unless an
// earlier one has the same need and variables, in which case the
// variables are dropped again.
func (t *conTable) add(start, need int) {
	vars := t.vars[start:]
	h := uint64(14695981039346656037) ^ uint64(need)
	for _, v := range vars {
		h = (h ^ uint64(v)) * 1099511628211
	}
	if 2*(len(t.spans)+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		s := &t.spans[t.slots[i]-1]
		if s.hash == h && s.need == need && slices.Equal(t.vars[s.start:s.end], vars) {
			t.vars = t.vars[:start]
			return
		}
	}
	t.spans = append(t.spans, conSpan{start: start, end: len(t.vars), need: need, hash: h})
	t.slots[i] = int32(len(t.spans))
}

// grow doubles the slot table (64 slots at first) and reinserts every
// span.
func (t *conTable) grow() {
	size := 2 * len(t.slots)
	if size < 64 {
		size = 64
	}
	t.slots = make([]int32, size)
	mask := uint64(size - 1)
	for si, s := range t.spans {
		i := s.hash & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(si + 1)
	}
}

// constraints returns the collected constraints in insertion order,
// their variables carved from one slice.
func (t *conTable) constraints() []ilp.Constraint {
	if len(t.spans) == 0 {
		return nil
	}
	cons := make([]ilp.Constraint, len(t.spans))
	for i, s := range t.spans {
		cons[i] = ilp.Constraint{Vars: t.vars[s.start:s.end:s.end], Need: s.need}
	}
	return cons
}
