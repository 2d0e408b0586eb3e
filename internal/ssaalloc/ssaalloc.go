// Package ssaalloc is the low-latency allocation backend of the
// portfolio: a dominance-order greedy scan in the spirit of SSA-based
// register allocation (Bouchez, Darte & Rastello, "On the Complexity
// of Spill Everywhere under SSA Form"). Under SSA the interference
// graph is chordal, and walking the dominator tree in preorder visits
// live ranges in a perfect elimination order — one linear pass colors
// the function optimally, no interference graph, no iteration.
//
// The repository's IR is not SSA (kernels redefine virtual registers
// freely), so the scan is the dominance-order *live-range variant*
// that avoids materializing φ-functions: it colors each virtual
// register at its first appearance along the dominator-tree walk and
// keeps, per block, an exact occupancy mask rebuilt from live-in sets
// and per-instruction death masks. On dominance-connected inputs this
// is the chordal scan; where a live range is *not* dominance-connected
// (a register dead in between and revived with its old color taken)
// the scan detects the hazard and falls back to one dense-matrix
// greedy pass over the same dominance order.
//
// The hot path is aggressively lazy: when no program point exceeds K
// registers — the common case for the wide register files of §8 — the
// allocator never clones the input, never touches a map, and does one
// liveness fixpoint plus two linear walks, all on flat arena state.
// Cloning, block frequencies, spill costs, and slot tables are paid
// only once pressure actually forces a spill.
//
// Spilling is decided *before* coloring: the analysis walk finds every
// program point whose register demand exceeds K and lowers it by
// spilling the live-through range with the furthest next use (Belady),
// cheapest weighted spill cost as the tiebreak. Points over pressure
// force a spill under any allocator — a clique larger than K has no
// K-coloring — so the fast path never spills where iterated register
// coalescing could have avoided it.
//
// The differential-select cost hook (§6) plugs into the color choice:
// when several colors are free, the scan scores them with
// diffsel.PickCost over the live-range adjacency graph and takes the
// cheapest, so the fast path still minimizes set_last_reg traffic.
package ssaalloc

import (
	"fmt"
	"math"
	"math/bits"

	"diffra/internal/adjacency"
	"diffra/internal/bitset"
	"diffra/internal/diffsel"
	"diffra/internal/ir"
	"diffra/internal/liveness"
	"diffra/internal/regalloc"
	"diffra/internal/scratch"
	"diffra/internal/telemetry"
)

// Options configures the allocator.
type Options struct {
	// K is the number of machine registers available for coloring.
	K int
	// Diff, when its RegN is non-zero and DiffN < RegN, enables the
	// differential-select tiebreak: free colors are scored with
	// diffsel.PickCost over the live-range adjacency graph and the
	// cheapest wins. The zero value keeps the plain lowest-color rule
	// (and the allocation-free hot path).
	Diff diffsel.Params
	// MaxRounds bounds spill-rewrite iterations (0: 32).
	MaxRounds int
	// Slots supplies the stack-slot assigner; callers that already
	// inserted spill code pass theirs so slot numbers stay disjoint.
	Slots *regalloc.SlotAssigner
	// Trace, when non-nil, is the allocator's phase span: Allocate adds
	// per-round counters (pressure spills, hazards, fallback rounds)
	// under it. Allocate does not End it; the caller owns it.
	Trace *telemetry.Span
	// Scratch, when non-nil, supplies the arena the allocator carves
	// its per-round working state from; Allocate resets it at the start
	// of every round. Never changes the result. Nil: a private arena.
	Scratch *scratch.Arena
}

// Allocate colors f with opts.K registers, spilling as needed, and
// returns the allocated function plus the assignment for every vreg.
// When no spill code is needed the returned function IS f — the scan
// is read-only and skips the clone; callers that go on to mutate the
// result (inserting set_last_reg repairs, rewriting operands) must
// clone first when the two pointers are equal. Once spilling rewrites
// code, the returned function is a private clone as with irc.Allocate.
// The result is deterministic: same function, same options, same
// coloring.
func Allocate(f *ir.Func, opts Options) (*ir.Func, *regalloc.Assignment, error) {
	if opts.K < 2 {
		return nil, nil, fmt.Errorf("ssaalloc: need at least 2 registers, have %d", opts.K)
	}
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 32
	}
	ar := opts.Scratch
	if ar == nil {
		ar = new(scratch.Arena)
	}

	work := f                              // cloned lazily, at the first spill rewrite
	asn := &regalloc.Assignment{K: opts.K} // StackParams created on first spilled param
	asnStackParams := func() map[ir.Reg]int64 {
		if asn.StackParams == nil {
			asn.StackParams = map[ir.Reg]int64{}
		}
		return asn.StackParams
	}
	slots := opts.Slots
	var unspillable map[ir.Reg]bool

	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, nil, fmt.Errorf("ssaalloc: no convergence after %d spill rounds (K=%d)", maxRounds, opts.K)
		}
		opts.Trace.Add("rounds", 1)
		// The arena rewinds here: everything the previous round carved
		// is dead — the only cross-round state (work, asn, unspillable)
		// lives on the heap.
		ar.Reset()
		s := newScanState(work, opts, ar)
		for v := range unspillable {
			if int(v) < s.n {
				s.unspillable[v] = true
			}
		}

		var victims []int
		if s.analyze() {
			victims = s.pressureSpills()
			opts.Trace.Add("pressure_spills", int64(len(victims)))
		} else {
			s.buildOrder()
			if s.scan() {
				return finish(work, asn, s, opts)
			}
			// A live range revived with its old color taken: retire the
			// optimistic scan result and recolor everything against the
			// real interference matrix, same dominance order.
			opts.Trace.Add("hazard_fallbacks", 1)
			victims = s.matrixColor()
			if victims == nil {
				return finish(work, asn, s, opts)
			}
		}
		if len(victims) == 0 {
			return nil, nil, fmt.Errorf("ssaalloc: pressure exceeds K=%d with nothing spillable", opts.K)
		}

		if work == f {
			work = f.Clone()
		}
		if slots == nil {
			slots = regalloc.NewSlotAssigner()
		}
		if unspillable == nil {
			unspillable = make(map[ir.Reg]bool)
		}
		spillSet := make(map[ir.Reg]bool, len(victims))
		for _, v := range victims {
			spillSet[ir.Reg(v)] = true
			asn.SpilledVRegs++
		}
		for _, p := range work.Params {
			if spillSet[p] {
				asnStackParams()[p] = slots.SlotOf(p)
			}
		}
		origin, inserted := regalloc.RewriteSpills(work, spillSet, slots)
		asn.SpillInstrs += inserted
		for tmp := range origin {
			unspillable[tmp] = true
		}
	}
}

func finish(work *ir.Func, asn *regalloc.Assignment, s *scanState, opts Options) (*ir.Func, *regalloc.Assignment, error) {
	asn.Color = make([]int, s.n)
	copy(asn.Color, s.color)
	opts.Trace.Add("spilled_vregs", int64(asn.SpilledVRegs))
	opts.Trace.Add("spill_instrs", int64(asn.SpillInstrs))
	return work, asn, nil
}

// scanState is one round's working state, carved from the arena.
type scanState struct {
	f    *ir.Func
	k    int
	n    int // vregs
	ar   *scratch.Arena
	info liveness.Info
	cost []float64 // weighted spill cost per vreg, computed lazily

	// instrBase flattens (block index, instruction index) into one
	// global position for the death masks.
	instrBase []int
	// Death masks, one byte pair per instruction: bit i of useMask[p]
	// marks Uses[i] as a last use (its color frees before the defs
	// allocate); bit i of defMask[p] marks Defs[i] as dead past the
	// instruction. maskOverflow (an instruction with more than eight
	// operands) forces the matrix path, which needs no masks.
	useMask, defMask []byte
	maskOverflow     bool

	// order is the dominator-tree preorder (children in RPO order),
	// with unreachable blocks appended.
	order []int
	// unreachableCode: some non-empty block never got live sets from
	// the dataflow fixpoint (it only iterates the reachable RPO), so
	// the scan's occupancy tracking is blind to interference the
	// verifier will still derive there — the matrix pass sees it.
	unreachableCode bool

	unspillable []bool
	occurs      []bool

	// Scan state. occupied is a K-bit mask over colors; holder maps an
	// occupied color to the live vreg holding it (stale entries are
	// never read — the bit gates them).
	color    []int
	occupied []uint64
	holder   []int
	okBuf    []int
	memBuf   []int

	// Differential tiebreak, built lazily on first multi-choice pick.
	diff    diffsel.Params
	diffCSR *adjacency.CSR
}

func newScanState(f *ir.Func, opts Options, ar *scratch.Arena) *scanState {
	n := f.NumRegs()
	nb := len(f.Blocks)
	s := &scanState{
		f:           f,
		k:           opts.K,
		n:           n,
		ar:          ar,
		instrBase:   ar.Ints(nb + 1),
		unspillable: ar.Bools(n),
		occurs:      ar.Bools(n),
		color:       ar.Ints(n),
		occupied:    ar.Uint64s((opts.K + 63) / 64),
		holder:      ar.Ints(opts.K),
		okBuf:       ar.Ints(opts.K)[:0],
		memBuf:      ar.Ints(1),
		diff:        opts.Diff,
	}
	total := 0
	for _, b := range f.Blocks {
		s.instrBase[b.Index] = total
		total += len(b.Instrs)
	}
	s.instrBase[nb] = total
	liveness.ComputeInto(f, nil, ar, &s.info)
	for v := range s.color {
		s.color[v] = -1
	}
	return s
}

// costs lazily computes the loop-weighted spill costs; only spill
// decisions read them, so the no-spill path never pays for block
// frequencies.
func (s *scanState) costs() []float64 {
	if s.cost == nil {
		s.cost = liveness.SpillCostsWeighted(s.f, s.f.BlockFreqs(), s.ar)
	}
	return s.cost
}

// analyze is the one mandatory walk: it fills the death masks and the
// occurrence flags, and reports whether any program point demands more
// than K registers. Demand at an instruction is |liveAfter ∪ defs| — a
// def needs a register distinct from everything live after it even
// when the def itself is dead — plus the entry block's live-in clique.
func (s *scanState) analyze() bool {
	total := s.instrBase[len(s.f.Blocks)]
	s.useMask = s.ar.Bytes(total)
	s.defMask = s.ar.Bytes(total)
	over := false
	if e := s.f.Entry(); e != nil && s.info.LiveIn[e.Index].Len() > s.k {
		over = true
	}
	// The backward walk is open-coded rather than routed through
	// Info.LiveAcross: this runs for every instruction of every compile
	// and the per-instruction closure call is measurable on the no-spill
	// path. Functions with at most 64 vregs (every §8 kernel) keep the
	// live set in one machine word.
	if s.n <= 64 {
		for _, b := range s.f.Blocks {
			base := s.instrBase[b.Index]
			live := s.info.LiveOut[b.Index].Word(0)
			for idx := len(b.Instrs) - 1; idx >= 0; idx-- {
				in := b.Instrs[idx]
				p := base + idx
				count := bits.OnesCount64(live)
				var um, dm byte
				for i, u := range in.Uses {
					s.occurs[u] = true
					if live&(1<<uint(u)) == 0 {
						um |= 1 << uint(i&7)
					}
				}
				for i, d := range in.Defs {
					s.occurs[d] = true
					if live&(1<<uint(d)) == 0 {
						dm |= 1 << uint(i&7)
						count++
					}
				}
				if len(in.Uses) > 8 || len(in.Defs) > 8 {
					s.maskOverflow = true
				}
				s.useMask[p], s.defMask[p] = um, dm
				if count > s.k {
					over = true
				}
				for _, d := range in.Defs {
					live &^= 1 << uint(d)
				}
				for _, u := range in.Uses {
					live |= 1 << uint(u)
				}
			}
		}
		return over
	}
	live := s.ar.Bitset(s.n)
	for _, b := range s.f.Blocks {
		base := s.instrBase[b.Index]
		live.CopyFrom(s.info.LiveOut[b.Index])
		for idx := len(b.Instrs) - 1; idx >= 0; idx-- {
			in := b.Instrs[idx]
			p := base + idx
			count := live.Len()
			var um, dm byte
			for i, u := range in.Uses {
				s.occurs[u] = true
				if !live.Has(int(u)) {
					um |= 1 << uint(i&7)
				}
			}
			for i, d := range in.Defs {
				s.occurs[d] = true
				if !live.Has(int(d)) {
					dm |= 1 << uint(i&7)
					count++
				}
			}
			if len(in.Uses) > 8 || len(in.Defs) > 8 {
				s.maskOverflow = true
			}
			s.useMask[p], s.defMask[p] = um, dm
			if count > s.k {
				over = true
			}
			for _, d := range in.Defs {
				live.Remove(int(d))
			}
			for _, u := range in.Uses {
				live.Add(int(u))
			}
		}
	}
	return over
}

// pressureSpills lowers every over-pressure point by spilling
// live-through ranges, furthest next use first. Only runs when analyze
// saw at least one such point.
func (s *scanState) pressureSpills() []int {
	cost := s.costs()
	victims := []int(nil)
	spilledNow := s.ar.Bools(s.n)
	// nextOcc[v] is the position of v's next occurrence strictly after
	// the point being visited, within the current block; epoch-tagged
	// so it resets per block without clearing.
	nextOcc := s.ar.Ints(s.n)
	nextEpoch := s.ar.Ints(s.n)
	epoch := 0

	// Entry clique: the live-in set of the entry block must itself fit.
	if e := s.f.Entry(); e != nil {
		in := s.info.LiveIn[e.Index]
		count := in.Len()
		for count > s.k {
			v := s.pickEntryVictim(in, spilledNow, cost)
			if v < 0 {
				break
			}
			spilledNow[v] = true
			victims = append(victims, v)
			count--
		}
	}

	for _, b := range s.f.Blocks {
		epoch++
		s.info.LiveAcross(b, func(idx int, in *ir.Instr, liveAfter *bitset.Set) {
			// Demand: live-after registers not already spilled, plus
			// defs that are not live after (dead defs still occupy a
			// register at this point).
			count := 0
			liveAfter.ForEach(func(v int) {
				if !spilledNow[v] {
					count++
				}
			})
			for _, d := range in.Defs {
				if !liveAfter.Has(int(d)) && !spilledNow[d] {
					count++
				}
			}
			for count > s.k {
				v := s.pickPointVictim(in, liveAfter, spilledNow, cost, nextOcc, nextEpoch, epoch)
				if v < 0 {
					break
				}
				spilledNow[v] = true
				victims = append(victims, v)
				count--
			}
			// Walking backwards: occurrences at idx become the "next"
			// occurrence for every earlier point.
			for _, u := range in.Uses {
				nextOcc[u], nextEpoch[u] = idx, epoch
			}
			for _, d := range in.Defs {
				nextOcc[d], nextEpoch[d] = idx, epoch
			}
		})
	}
	return victims
}

// pickPointVictim chooses the spill victim at an over-pressure point:
// a register live after the instruction but not occurring in it
// (spilling an operand leaves a reload temp live at the same point, so
// it would not lower pressure here), with the furthest next use in the
// block — no further use outranks any in-block distance — and the
// smallest weighted spill cost as the tiebreak.
func (s *scanState) pickPointVictim(in *ir.Instr, liveAfter *bitset.Set, spilledNow []bool, cost []float64, nextOcc, nextEpoch []int, epoch int) int {
	best, bestDist, bestCost := -1, -1, math.Inf(1)
	const far = 1 << 30
	liveAfter.ForEach(func(v int) {
		if spilledNow[v] || s.unspillable[v] {
			return
		}
		for _, d := range in.Defs {
			if int(d) == v {
				return
			}
		}
		for _, u := range in.Uses {
			if int(u) == v {
				return
			}
		}
		dist := far
		if nextEpoch[v] == epoch {
			dist = nextOcc[v]
		}
		if dist > bestDist || (dist == bestDist && cost[v] < bestCost) {
			best, bestDist, bestCost = v, dist, cost[v]
		}
	})
	return best
}

func (s *scanState) pickEntryVictim(liveIn *bitset.Set, spilledNow []bool, cost []float64) int {
	best, bestCost := -1, math.Inf(1)
	liveIn.ForEach(func(v int) {
		if spilledNow[v] || s.unspillable[v] {
			return
		}
		if cost[v] < bestCost {
			best, bestCost = v, cost[v]
		}
	})
	return best
}

// buildOrder computes the scan order: reverse postorder, which is a
// linear extension of the dominance relation — every block comes after
// all blocks that dominate it — so it serves as the dominance order
// the chordal argument needs without materializing the dominator tree.
// Unreachable blocks go last, in index order: they still need colors,
// they just constrain nothing reachable. All flat arena state, one
// iterative DFS.
func (s *scanState) buildOrder() {
	nb := len(s.f.Blocks)
	s.order = s.ar.Ints(nb)[:0]
	entry := s.f.Entry()
	if entry == nil {
		return
	}

	// Iterative DFS postorder, reversed into RPO in place.
	seen := s.ar.Bools(nb)
	bStack := s.ar.Ints(nb)[:0]
	pStack := s.ar.Ints(nb)[:0]
	seen[entry.Index] = true
	bStack = append(bStack, entry.Index)
	pStack = append(pStack, 0)
	for len(bStack) > 0 {
		top := len(bStack) - 1
		b := s.f.Blocks[bStack[top]]
		if pStack[top] < len(b.Succs) {
			succ := b.Succs[pStack[top]]
			pStack[top]++
			if !seen[succ.Index] {
				seen[succ.Index] = true
				bStack = append(bStack, succ.Index)
				pStack = append(pStack, 0)
			}
			continue
		}
		s.order = append(s.order, b.Index)
		bStack = bStack[:top]
		pStack = pStack[:top]
	}
	for i, j := 0, len(s.order)-1; i < j; i, j = i+1, j-1 {
		s.order[i], s.order[j] = s.order[j], s.order[i]
	}
	if len(s.order) < nb {
		for i := 0; i < nb; i++ {
			if !seen[i] {
				s.order = append(s.order, i)
				if len(s.f.Blocks[i].Instrs) > 0 {
					s.unreachableCode = true
				}
			}
		}
	}
}

// --- the dominance-order scan ---

func (s *scanState) occupy(c, v int) {
	s.occupied[c>>6] |= 1 << uint(c&63)
	s.holder[c] = v
}

func (s *scanState) release(c int) {
	s.occupied[c>>6] &^= 1 << uint(c&63)
}

func (s *scanState) isOccupied(c int) bool {
	return s.occupied[c>>6]&(1<<uint(c&63)) != 0
}

// freeColors rebuilds okBuf with every unoccupied color, ascending.
// Only the differential tiebreak needs the full list; the plain path
// uses allocColor's first-zero-bit scan instead.
func (s *scanState) freeColors() []int {
	ok := s.okBuf[:0]
	for c := 0; c < s.k; c++ {
		if !s.isOccupied(c) {
			ok = append(ok, c)
		}
	}
	s.okBuf = ok
	return ok
}

// diffOn reports whether the §6 cost tiebreak participates in color
// choice (it needs a real difference alphabet narrower than the file).
func (s *scanState) diffOn() bool {
	return s.diff.RegN != 0 && s.diff.DiffN < s.diff.RegN
}

// allocColor picks a color for v among the free ones, or -1 when none
// remain: the lowest free color by a first-zero-bit scan, unless the
// differential tiebreak is on.
func (s *scanState) allocColor(v int) int {
	if !s.diffOn() {
		for wi, w := range s.occupied {
			if inv := ^w; inv != 0 {
				c := wi<<6 | bits.TrailingZeros64(inv)
				if c < s.k {
					return c
				}
				return -1
			}
		}
		return -1
	}
	free := s.freeColors()
	if len(free) == 0 {
		return -1
	}
	return s.pickColor(v, free)
}

// pickColor chooses among the free colors: lowest number, unless the
// differential tiebreak is on — then the candidate minimizing the §6
// adjacency cost (first wins ties, matching diffsel's picker).
func (s *scanState) pickColor(v int, ok []int) int {
	if len(ok) == 1 || s.diff.RegN == 0 || s.diff.DiffN >= s.diff.RegN {
		return ok[0]
	}
	if s.diffCSR == nil {
		s.diffCSR = adjacency.BuildVReg(s.f)
	}
	s.memBuf[0] = v
	colorOf := func(u int) int { return s.color[u] }
	aliasOf := func(u int) int { return u }
	bestColor, bestCost := ok[0], 0.0
	for i, c := range ok {
		cost := diffsel.PickCost(s.diffCSR, s.memBuf, v, c, colorOf, aliasOf, s.diff)
		if i == 0 || cost < bestCost {
			bestColor, bestCost = c, cost
		}
	}
	return bestColor
}

// enterBlock rebuilds the occupancy mask at a block head: mark the
// colored live-ins (two holding the same color is a hazard — a
// non-dominance-connected range whose color was reused), then color the
// uncolored ones (a live range flowing in from a not-yet-scanned
// sibling subtree, or an uninitialized read) — they are mutually live
// at the head. Reports false on hazard or exhausted colors. The caller
// has already zeroed s.occupied.
func (s *scanState) enterBlock(bi int) bool {
	in := s.info.LiveIn[bi]
	if s.n <= 64 {
		w := in.Word(0)
		for t := w; t != 0; t &= t - 1 {
			v := bits.TrailingZeros64(t)
			if c := s.color[v]; c >= 0 {
				if s.isOccupied(c) && s.holder[c] != v {
					return false
				}
				s.occupy(c, v)
			}
		}
		for t := w; t != 0; t &= t - 1 {
			v := bits.TrailingZeros64(t)
			if s.color[v] < 0 {
				c := s.allocColor(v)
				if c < 0 {
					return false
				}
				s.color[v] = c
				s.occupy(c, v)
			}
		}
		return true
	}
	hazard := false
	ok := true
	in.ForEach(func(v int) {
		if c := s.color[v]; c >= 0 {
			if s.isOccupied(c) && s.holder[c] != v {
				hazard = true
				return
			}
			s.occupy(c, v)
		}
	})
	if hazard {
		return false
	}
	in.ForEach(func(v int) {
		if !ok || s.color[v] >= 0 {
			return
		}
		c := s.allocColor(v)
		if c < 0 {
			ok = false
			return
		}
		s.color[v] = c
		s.occupy(c, v)
	})
	return ok
}

// scan colors the function in one dominance-order pass. It maintains
// the invariant that at every program point the occupied mask holds
// exactly the colors of the currently-live registers, all distinct.
// Entry marking, definitions, and revivals each check the invariant;
// any violation (a non-dominance-connected live range whose color was
// reused) aborts with false and the caller falls back to the matrix.
func (s *scanState) scan() bool {
	if s.unreachableCode || s.maskOverflow {
		return false
	}
	for _, bi := range s.order {
		b := s.f.Blocks[bi]
		for i := range s.occupied {
			s.occupied[i] = 0
		}
		if !s.enterBlock(bi) {
			return false
		}

		base := s.instrBase[bi]
		for idx, in := range b.Instrs {
			p := base + idx
			// Last uses free their colors first: a def may legally
			// reuse the register of an operand it kills.
			if um := s.useMask[p]; um != 0 {
				for i, u := range in.Uses {
					if um&(1<<uint(i&7)) == 0 {
						continue
					}
					if c := s.color[u]; c >= 0 && s.isOccupied(c) && s.holder[c] == int(u) {
						s.release(c)
					}
				}
			}
			for _, d := range in.Defs {
				v := int(d)
				if c := s.color[v]; c >= 0 {
					// Redefinition. Live-through: the bit is already
					// ours. Revival of a dead range: the old color must
					// still be free here, else the optimism failed.
					if s.isOccupied(c) && s.holder[c] != v {
						return false
					}
					s.occupy(c, v)
					continue
				}
				c := s.allocColor(v)
				if c < 0 {
					return false
				}
				s.color[v] = c
				s.occupy(c, v)
			}
			// Dead defs held their register only across the
			// instruction (they interfere with everything live after
			// it, and with their sibling defs — both enforced above).
			if dm := s.defMask[p]; dm != 0 {
				for i, d := range in.Defs {
					if dm&(1<<uint(i&7)) == 0 {
						continue
					}
					if c := s.color[d]; c >= 0 && s.holder[c] == int(d) {
						s.release(c)
					}
				}
			}
		}
	}
	// Registers that occur but were never reached by liveness (dead
	// parameters, dead code kept by the front end) interfere with
	// nothing; any color satisfies the verifier.
	for _, p := range s.f.Params {
		if s.color[p] < 0 {
			s.color[p] = 0
		}
	}
	for v := 0; v < s.n; v++ {
		if s.occurs[v] && s.color[v] < 0 {
			s.color[v] = 0
		}
	}
	return true
}

// --- dense-matrix fallback ---

// matrixColor rebuilds the coloring against the full interference
// matrix (regalloc.Interferences, as regalloc.Build uses), greedily in
// the same dominance order the scan uses. It is the safety net for
// live ranges that are not dominance-connected. Returns nil on
// success, or the spill victims for the next round.
func (s *scanState) matrixColor() []int {
	w := (s.n + 63) / 64
	mat := s.ar.Uint64s(s.n * w)
	deg := s.ar.Ints(s.n)
	add := func(u, v int) {
		if u == v {
			return
		}
		wi := u*w + v>>6
		bit := uint64(1) << uint(v&63)
		if mat[wi]&bit != 0 {
			return
		}
		mat[wi] |= bit
		mat[v*w+u>>6] |= 1 << uint(u&63)
		deg[u]++
		deg[v]++
	}
	regalloc.Interferences(s.f, &s.info, nil, add)

	// First-touch dominance order: live-ins, then operands, then defs,
	// block by block — the same visit order the scan colors in.
	orderV := s.ar.Ints(s.n)[:0]
	seen := s.ar.Bools(s.n)
	touch := func(v int) {
		if !seen[v] {
			seen[v] = true
			orderV = append(orderV, v)
		}
	}
	for _, bi := range s.order {
		s.info.LiveIn[bi].ForEach(touch)
		for _, in := range s.f.Blocks[bi].Instrs {
			for _, u := range in.Uses {
				touch(int(u))
			}
			for _, d := range in.Defs {
				touch(int(d))
			}
		}
	}
	for _, p := range s.f.Params {
		touch(int(p))
	}

	for v := range s.color {
		s.color[v] = -1
	}
	var victims []int
	for _, v := range orderV {
		if !s.occurs[v] && deg[v] == 0 {
			s.color[v] = 0
			continue
		}
		for i := range s.occupied {
			s.occupied[i] = 0
		}
		row := mat[v*w : (v+1)*w]
		for u := 0; u < s.n; u++ {
			if row[u>>6]&(1<<uint(u&63)) != 0 {
				if c := s.color[u]; c >= 0 {
					s.occupy(c, u)
				}
			}
		}
		c := s.allocColor(v)
		if c < 0 {
			victims = append(victims, s.matrixVictim(v, mat, w))
			continue
		}
		s.color[v] = c
	}
	if victims == nil {
		return nil
	}
	return victims
}

// matrixVictim picks what to spill when v has no free color: v itself
// if spillable, else its cheapest spillable neighbor. Spill temps are
// unspillable but their ranges span single instructions, so a
// neighborhood always contains a spillable range before MaxRounds.
func (s *scanState) matrixVictim(v int, mat []uint64, w int) int {
	if !s.unspillable[v] {
		return v
	}
	cost := s.costs()
	best, bestCost := -1, math.Inf(1)
	row := mat[v*w : (v+1)*w]
	for u := 0; u < s.n; u++ {
		if row[u>>6]&(1<<uint(u&63)) == 0 || s.unspillable[u] {
			continue
		}
		if cost[u] < bestCost {
			best, bestCost = u, cost[u]
		}
	}
	if best < 0 {
		// Nothing spillable in the neighborhood: spill v anyway and let
		// the round bound catch pathological inputs.
		return v
	}
	return best
}
