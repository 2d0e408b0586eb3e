package modsched

// Joint modulo scheduling × differential allocation. The phased
// pipeline (Compile → KernelRegs → EncodingCost) fixes the schedule
// before the encoder sees it — the classic phase-ordering problem the
// combinatorial-survey literature argues against. SolveJoint decides
// initiation interval, per-op issue slot and per-value register in ONE
// branch-and-bound whose objective is lexicographic
// (cycles, set_last_reg count), seeded with the phased result as the
// warm incumbent so it can never do worse, and run on the
// deterministic epoch engine from internal/ilp — the standing
// stress test for that engine, because a loop instance is one
// connected problem that component decomposition cannot split.
//
// Decision tree (fixed order, so work items replay deterministically):
//
//	level 0                II ∈ [MII, phased II], ascending
//	levels 1..nOps         issue slot for op order[k-1]: t in the
//	                       modulo-scheduling window [est, min(ub,
//	                       est+II-1)] with a free slot of the op's
//	                       class, ascending t
//	levels nOps+1..+nVals  register for value vals[k]: non-conflicting
//	                       under the modulo-row interference masks,
//	                       ordered by (encoding-cost delta, register)
//
// Bounds: cycles ≥ II·Trip + max(placed-op time + downstream critical
// path) at every slot decision (admissible because dependence windows
// force every chain), and the partial set_last_reg count only grows as
// registers are assigned. Candidate ENUMERATION is bound-independent —
// pruning happens at descent — so a suspended chunk's frontier means
// the same thing in any epoch, which the epoch engine's determinism
// argument requires.

import (
	"fmt"

	"diffra/internal/adjacency"
	"diffra/internal/ilp"
	"diffra/internal/telemetry"
	"diffra/internal/vliw"
)

// jointScale separates the lexicographic objective: cost =
// cycles*jointScale + setLastRegCount. Valid while the kernel access
// sequence is shorter than jointScale (checked; longer loops skip the
// joint search and keep the phased result).
const jointScale = 4096

const jointDefaultMaxNodes = 20000

// JointOptions configures SolveJoint.
type JointOptions struct {
	// Restarts/Seed parameterize the phased baseline's differential
	// remapping (the joint model assigns registers directly and needs
	// neither).
	Restarts int
	Seed     int64
	// MaxNodes caps branch-and-bound nodes (0: 20000). Within budget
	// the search is exact over the windowed decision space; past it
	// the incumbent (never worse than phased) is returned.
	MaxNodes int
	// Workers parallelizes the search; results are bit-identical at
	// any worker count.
	Workers int
	Cancel  func() bool
	// Stats accumulates epoch scheduler telemetry.
	Stats *ilp.StealStats
	// Trace, when non-nil, receives a "joint" child span carrying the
	// search effort and outcome (nil-safe, like all span handles).
	Trace *telemetry.Span
}

// JointResult carries the phased baseline and the best joint solution.
type JointResult struct {
	// Phased two-phase baseline (schedule, then first-fit registers,
	// then differential remapping).
	Phased       *Schedule
	PhasedRegs   []int
	PhasedEnc    int
	PhasedCycles int

	// Best known solution: the joint incumbent when the search found a
	// strictly better (cycles, enc), otherwise the phased baseline.
	Improved bool
	II       int
	Time     []int
	RegOf    []int
	Enc      int
	Cycles   int

	// Search effort.
	Nodes   int
	Pruned  int
	Optimal bool // decision space exhausted within budget
	Skipped bool // fast path: phased result provably optimal, no search
}

// Cost is the scalarized lexicographic objective of the best solution.
func (r *JointResult) Cost() int64 {
	return int64(r.Cycles)*jointScale + int64(r.Enc)
}

// jointSol is the incumbent payload carried through the epoch engine.
type jointSol struct {
	ii   int
	time []int
	regs []int
	enc  int
	fill int
}

// jointItem is one work item: a decision-value prefix plus the
// candidate ordinal to resume from at the next level.
type jointItem struct {
	dec  []int32
	from int32
}

// SolveJoint runs the phased pipeline, then — unless the phased result
// is provably optimal — the joint branch-and-bound seeded with it.
func SolveJoint(l *Loop, m vliw.Machine, regN, diffN int, opts JointOptions) (*JointResult, error) {
	span := opts.Trace.Child("joint")
	finish := func(r *JointResult) *JointResult {
		span.Add("nodes", int64(r.Nodes))
		span.Add("pruned", int64(r.Pruned))
		span.Add("phased_sets", int64(r.PhasedEnc))
		span.Add("joint_sets", int64(r.Enc))
		span.Add("phased_cycles", int64(r.PhasedCycles))
		span.Add("joint_cycles", int64(r.Cycles))
		span.SetAttr("improved", r.Improved)
		span.SetAttr("optimal", r.Optimal)
		span.SetAttr("skipped", r.Skipped)
		span.End()
		return r
	}
	phased, err := Compile(l, m, regN)
	if err != nil {
		span.End()
		return nil, err
	}
	regs := KernelRegs(phased, regN)
	enc := EncodingCost(phased, regs, regN, diffN, opts.Restarts, opts.Seed)
	res := &JointResult{
		Phased: phased, PhasedRegs: regs, PhasedEnc: enc, PhasedCycles: phased.Cycles(),
		II: phased.II, Time: phased.Time, RegOf: regs, Enc: enc, Cycles: phased.Cycles(),
	}
	work := phased.Loop // post-spill body: the joint model keeps the spill set
	mii := MII(work, m)
	cp := criticalPathOf(work, m)
	cpMax := 0
	for _, v := range cp {
		if v > cpMax {
			cpMax = v
		}
	}
	// Fast path: at II = MII, fill = critical path and zero repairs
	// there is nothing left to optimize in (cycles, enc).
	if enc == 0 && phased.II == mii && res.Cycles == mii*work.Trip+cpMax {
		res.Optimal, res.Skipped = true, true
		return finish(res), nil
	}
	if len(accessOrder(work, phased.Time, phased.II)) >= jointScale {
		// The scalarization would alias cycles and enc; keep phased.
		return finish(res), nil
	}

	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = jointDefaultMaxNodes
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	states := make([]*jointState, workers)
	outs := ilp.RunSteal(ilp.StealConfig[jointItem, jointSol]{
		Groups:   1,
		GroupOf:  func(jointItem) int { return 0 },
		Items:    []jointItem{{}},
		Bound:    []float64{float64(res.Cost())},
		MaxNodes: maxNodes,
		Workers:  workers,
		Cancel:   opts.Cancel,
		Stats:    opts.Stats,
		Run: func(w int, it jointItem, bound float64, chunk int) ilp.ChunkOut[jointItem, jointSol] {
			st := states[w]
			if st == nil {
				st = newJointState(work, m, regN, diffN, mii, phased.II, cp, cpMax)
				states[w] = st
			}
			return st.solveChunk(it, int64(bound), chunk, opts.Cancel)
		},
	})
	o := outs[0]
	res.Nodes, res.Pruned = o.Nodes, o.Pruned
	res.Optimal = !o.Exhausted && !o.Cancelled
	if o.Found {
		res.Improved = true
		res.II = o.Best.ii
		res.Time = o.Best.time
		res.RegOf = o.Best.regs
		res.Enc = o.Best.enc
		res.Cycles = o.Best.ii*work.Trip + o.Best.fill
		if float64(res.Cost()) != o.Cost {
			span.End()
			return nil, fmt.Errorf("modsched: joint incumbent cost mismatch")
		}
	}
	return finish(res), nil
}

// criticalPathOf returns, per op, the longest intra-iteration latency
// chain starting at that op (inclusive of its own latency): an
// admissible lower bound on how much schedule length must follow the
// op's issue slot.
func criticalPathOf(l *Loop, m vliw.Machine) []int {
	n := len(l.Ops)
	cp := make([]int, n)
	for i := range cp {
		cp[i] = m.Latency(l.Ops[i].Kind)
	}
	for changed := true; changed; {
		changed = false
		for to := range l.Ops {
			for _, d := range l.Ops[to].Deps {
				if d.Distance != 0 {
					continue
				}
				if v := m.Latency(l.Ops[d.From].Kind) + cp[to]; v > cp[d.From] {
					cp[d.From] = v
					changed = true
				}
			}
		}
	}
	return cp
}

// jointUse is a reverse dependence edge (consumer side).
type jointUse struct {
	to   int
	dist int
}

// regCand is a feasible register with the encoding-cost delta its
// assignment would finalize.
type regCand struct {
	r     int32
	delta int
}

// jointState is the per-worker search arena for one loop. A chunk
// fully resets and replays its item's decision prefix, so the state
// carries no information between items beyond its allocations.
type jointState struct {
	l          *Loop
	m          vliw.Machine
	regN       int
	diffN      int
	mii, maxII int
	cp         []int // per-op downstream critical path
	cpMax      int

	order []int        // op placement order (descending height)
	uses  [][]jointUse // consumers per op
	nVals int          // value-producing ops

	// Decision-prefix state.
	ii     int
	time   []int
	placed []bool
	slots  [][2]int // modulo row -> used issue slots per class
	fill   int      // max over placed ops of time + downstream cp

	// Register-phase tables, rebuilt whenever the schedule completes.
	regReady bool
	vals     []int      // value op ids in (start, id) order
	rowsOf   [][]uint64 // value op id -> modulo-row occupancy mask
	regMask  [][]uint64 // register -> occupied modulo rows
	regOf    []int      // op -> register (-1 unassigned / store)
	seq      []int      // kernel access order (value op ids)
	pairsOf  [][]int32  // value op id -> adjacent-pair indices (deduped)
	enc      int        // violations among fully-assigned pairs

	// Search bookkeeping.
	feas      []regCand // enumerate's register-candidate scratch
	path      []int32   // decision values, item prefix included
	ord       []int32   // candidate ordinal per level (valid >= rootLen)
	rootLen   int
	cands     [][]int32 // per-level candidate scratch
	maxNodes  int
	nodes     int
	pruned    int
	out       bool
	suspended bool
	susLevel  int
	susFrom   int32
	cancel    func() bool
	cancelled bool

	found    bool
	best     jointSol
	bestCost int64
}

func newJointState(l *Loop, m vliw.Machine, regN, diffN, mii, maxII int, cp []int, cpMax int) *jointState {
	n := len(l.Ops)
	s := &jointState{
		l: l, m: m, regN: regN, diffN: diffN, mii: mii, maxII: maxII,
		cp: cp, cpMax: cpMax,
		time:   make([]int, n),
		placed: make([]bool, n),
		regOf:  make([]int, n),
		uses:   make([][]jointUse, n),
	}
	for to, op := range l.Ops {
		for _, d := range op.Deps {
			s.uses[d.From] = append(s.uses[d.From], jointUse{to: to, dist: d.Distance})
		}
		if op.Kind != vliw.KindStore {
			s.nVals++
		}
	}
	// Placement order: descending height, stable by index — the same
	// priority Compile's scheduler uses, so the phased schedule is in
	// the search space.
	height := make([]int, n)
	for changed := true; changed; {
		changed = false
		for to := range l.Ops {
			for _, d := range l.Ops[to].Deps {
				if d.Distance != 0 {
					continue
				}
				if h := height[to] + m.Latency(l.Ops[d.From].Kind); h > height[d.From] {
					height[d.From] = h
					changed = true
				}
			}
		}
	}
	s.order = make([]int, n)
	for i := range s.order {
		s.order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && height[s.order[j]] > height[s.order[j-1]]; j-- {
			s.order[j], s.order[j-1] = s.order[j-1], s.order[j]
		}
	}
	total := 1 + n + s.nVals
	s.cands = make([][]int32, total)
	return s
}

// levels: 0 is II, 1..nOps are slots, nOps+1.. are registers.
func (s *jointState) totalLevels() int { return 1 + len(s.l.Ops) + s.nVals }

func (s *jointState) solveChunk(it jointItem, bound int64, chunk int, cancel func() bool) ilp.ChunkOut[jointItem, jointSol] {
	n := len(s.l.Ops)
	s.ii = 0
	for i := 0; i < n; i++ {
		s.placed[i] = false
		s.regOf[i] = -1
	}
	s.fill = 0
	s.regReady = false
	s.enc = 0
	s.path = append(s.path[:0], it.dec...)
	s.ord = s.ord[:0]
	for range it.dec {
		s.ord = append(s.ord, 0) // placeholders; only levels >= rootLen matter
	}
	s.rootLen = len(it.dec)
	s.maxNodes = chunk
	s.nodes, s.pruned = 0, 0
	s.out, s.suspended, s.cancelled = false, false, false
	s.found = false
	s.bestCost = bound
	s.cancel = cancel

	// Replay the item's decision prefix. Prefixes come from this same
	// search, so replay cannot fail.
	for lvl, d := range it.dec {
		s.applyDecision(lvl, d)
	}
	s.search(len(it.dec), int(it.from))

	out := ilp.ChunkOut[jointItem, jointSol]{
		Found:     s.found,
		Cost:      float64(s.bestCost),
		Best:      s.best,
		Nodes:     s.nodes,
		Pruned:    s.pruned,
		Cancelled: s.cancelled,
	}
	if s.suspended {
		// Continuation first, then pending siblings deepest-first — the
		// serial DFS visit order (see ilp/bb.go for the same shape).
		out.Children = append(out.Children, jointItem{
			dec:  append([]int32(nil), s.path[:s.susLevel]...),
			from: s.susFrom,
		})
		for i := s.susLevel - 1; i >= s.rootLen; i-- {
			out.Children = append(out.Children, jointItem{
				dec:  append([]int32(nil), s.path[:i]...),
				from: s.ord[i] + 1,
			})
		}
	}
	return out
}

// applyDecision mutates the prefix state with one decision value.
func (s *jointState) applyDecision(level int, d int32) {
	n := len(s.l.Ops)
	switch {
	case level == 0:
		s.setII(int(d))
	case level <= n:
		s.placeOp(s.order[level-1], int(d))
	default:
		if !s.regReady {
			s.setupRegPhase()
		}
		s.assignReg(s.vals[level-n-1], int(d))
	}
}

func (s *jointState) setII(ii int) {
	s.ii = ii
	if cap(s.slots) < ii {
		s.slots = make([][2]int, ii)
	}
	s.slots = s.slots[:ii]
	for r := range s.slots {
		s.slots[r] = [2]int{}
	}
}

func (s *jointState) placeOp(op, t int) {
	s.time[op] = t
	s.placed[op] = true
	row := ((t % s.ii) + s.ii) % s.ii
	s.slots[row][vliw.ClassOf(s.l.Ops[op].Kind)]++
	if v := t + s.cp[op]; v > s.fill {
		s.fill = v
	}
}

func (s *jointState) unplaceOp(op int) {
	s.placed[op] = false
	row := ((s.time[op] % s.ii) + s.ii) % s.ii
	s.slots[row][vliw.ClassOf(s.l.Ops[op].Kind)]--
}

// window returns the issue window [est, lst] for op given already
// placed ops (the same window Compile's scheduler searches first-fit).
func (s *jointState) window(op int) (int, int) {
	est := 0
	for _, d := range s.l.Ops[op].Deps {
		if s.placed[d.From] {
			if t := s.time[d.From] + s.m.Latency(s.l.Ops[d.From].Kind) - s.ii*d.Distance; t > est {
				est = t
			}
		}
	}
	lst := est + s.ii - 1
	for _, u := range s.uses[op] {
		if s.placed[u.to] {
			if t := s.time[u.to] - s.m.Latency(s.l.Ops[op].Kind) + s.ii*u.dist; t < lst {
				lst = t
			}
		}
	}
	return est, lst
}

// setupRegPhase derives the register-phase tables from the completed
// schedule: value order, per-value modulo-row occupancy (the KernelRegs
// interference model), the kernel access sequence and its cyclic
// adjacent pairs.
func (s *jointState) setupRegPhase() {
	s.regReady = true
	n := len(s.l.Ops)
	ii := s.ii
	words := (ii + 63) / 64

	if s.rowsOf == nil {
		s.rowsOf = make([][]uint64, n)
	}
	s.vals = s.vals[:0]
	for def, op := range s.l.Ops {
		if op.Kind == vliw.KindStore {
			continue
		}
		start := s.time[def]
		end := start + 1
		for _, u := range s.uses[def] {
			if t := s.time[u.to] + ii*u.dist; t > end {
				end = t
			}
		}
		mask := s.rowsOf[def]
		if cap(mask) < words {
			mask = make([]uint64, words)
		}
		mask = mask[:words]
		for w := range mask {
			mask[w] = 0
		}
		if end-start >= ii {
			for r := 0; r < ii; r++ {
				mask[r/64] |= 1 << (r % 64)
			}
		} else {
			for t := start; t < end; t++ {
				r := ((t % ii) + ii) % ii
				mask[r/64] |= 1 << (r % 64)
			}
		}
		s.rowsOf[def] = mask
		s.vals = append(s.vals, def)
	}
	// (start, id) order — KernelRegs' coloring order.
	for i := 1; i < len(s.vals); i++ {
		for j := i; j > 0; j-- {
			a, b := s.vals[j], s.vals[j-1]
			if s.time[a] < s.time[b] || (s.time[a] == s.time[b] && a < b) {
				s.vals[j], s.vals[j-1] = s.vals[j-1], s.vals[j]
			} else {
				break
			}
		}
	}

	if len(s.regMask) != s.regN {
		s.regMask = make([][]uint64, s.regN)
	}
	for r := range s.regMask {
		mask := s.regMask[r]
		if cap(mask) < words {
			mask = make([]uint64, words)
		}
		mask = mask[:words]
		for w := range mask {
			mask[w] = 0
		}
		s.regMask[r] = mask
	}

	s.seq = append(s.seq[:0], accessOrder(s.l, s.time, ii)...)
	if s.pairsOf == nil {
		s.pairsOf = make([][]int32, n)
	}
	for i := range s.pairsOf {
		s.pairsOf[i] = s.pairsOf[i][:0]
	}
	if len(s.seq) >= 2 {
		for i := range s.seq {
			a, b := s.seq[i], s.seq[(i+1)%len(s.seq)]
			s.pairsOf[a] = append(s.pairsOf[a], int32(i))
			if b != a {
				s.pairsOf[b] = append(s.pairsOf[b], int32(i))
			}
		}
	}
	s.enc = 0
}

// encDelta counts the adjacent-pair violations that assigning reg r to
// value v would finalize (pairs whose other endpoint is already
// assigned, or both endpoints v).
func (s *jointState) encDelta(v, r int) int {
	delta := 0
	for _, pi := range s.pairsOf[v] {
		a, b := s.seq[pi], s.seq[(int(pi)+1)%len(s.seq)]
		ra, rb := s.regOf[a], s.regOf[b]
		if a == v {
			ra = r
		}
		if b == v {
			rb = r
		}
		if ra < 0 || rb < 0 {
			continue
		}
		if !adjacency.Satisfied(ra, rb, s.regN, s.diffN) {
			delta++
		}
	}
	return delta
}

func (s *jointState) assignReg(v, r int) {
	s.enc += s.encDelta(v, r)
	s.regOf[v] = r
	for w, m := range s.rowsOf[v] {
		s.regMask[r][w] |= m
	}
}

func (s *jointState) unassignReg(v int) {
	r := s.regOf[v]
	for w, m := range s.rowsOf[v] {
		s.regMask[r][w] &^= m
	}
	s.regOf[v] = -1
	s.enc -= s.encDelta(v, r)
}

// enumerate fills s.cands[level] with the level's decision values.
// The list depends only on the decision prefix — never on the bound —
// so frontier items mean the same thing in every epoch.
func (s *jointState) enumerate(level int) []int32 {
	n := len(s.l.Ops)
	out := s.cands[level][:0]
	switch {
	case level == 0:
		for ii := s.mii; ii <= s.maxII; ii++ {
			out = append(out, int32(ii))
		}
	case level <= n:
		op := s.order[level-1]
		est, lst := s.window(op)
		cls := vliw.ClassOf(s.l.Ops[op].Kind)
		slotCap := s.m.SlotsOf(cls)
		for t := est; t <= lst; t++ {
			row := ((t % s.ii) + s.ii) % s.ii
			if s.slots[row][cls] < slotCap {
				out = append(out, int32(t))
			}
		}
	default:
		if !s.regReady {
			s.setupRegPhase()
		}
		v := s.vals[level-n-1]
		words := s.rowsOf[v]
		// Feasible registers ordered by (enc delta, register): explore
		// the encoding-cheapest placements first.
		feas := s.feas[:0]
		for r := 0; r < s.regN; r++ {
			ok := true
			for w, m := range words {
				if s.regMask[r][w]&m != 0 {
					ok = false
					break
				}
			}
			if ok {
				feas = append(feas, regCand{int32(r), s.encDelta(v, int(r))})
			}
		}
		for i := 1; i < len(feas); i++ {
			for j := i; j > 0; j-- {
				if feas[j].delta < feas[j-1].delta ||
					(feas[j].delta == feas[j-1].delta && feas[j].r < feas[j-1].r) {
					feas[j], feas[j-1] = feas[j-1], feas[j]
				} else {
					break
				}
			}
		}
		for _, c := range feas {
			out = append(out, c.r)
		}
		s.feas = feas
	}
	s.cands[level] = out
	return out
}

// search explores the subtree below the current prefix, starting at
// candidate ordinal from on this level (non-zero only at an item's
// resume root). One call is one branch-and-bound node.
func (s *jointState) search(level, from int) {
	if s.out {
		return
	}
	if s.nodes >= s.maxNodes {
		s.out, s.suspended = true, true
		s.susLevel, s.susFrom = level, int32(from)
		return
	}
	s.nodes++
	if s.cancel != nil && s.nodes&63 == 0 && s.cancel() {
		s.out, s.cancelled = true, true
		return
	}
	n := len(s.l.Ops)
	if level == s.totalLevels() {
		// Leaf: full schedule + assignment. fill is exact here (every
		// op's downstream chain is realized by the window constraints).
		cost := int64(s.ii*s.l.Trip+s.fill)*jointScale + int64(s.enc)
		if cost < s.bestCost {
			s.bestCost = cost
			s.found = true
			s.best = jointSol{
				ii:   s.ii,
				time: append([]int(nil), s.time...),
				regs: append([]int(nil), s.regOf...),
				enc:  s.enc,
				fill: s.fill,
			}
		}
		return
	}

	cands := s.enumerate(level)
	if len(s.path) == level {
		s.path = append(s.path, 0)
		s.ord = append(s.ord, 0)
	}
	for o := from; o < len(cands); o++ {
		d := cands[o]
		s.path = s.path[:level+1]
		s.ord = s.ord[:level+1]
		s.path[level], s.ord[level] = d, int32(o)
		switch {
		case level == 0:
			// Ascending II: once the cycle floor alone meets the bound,
			// every later candidate is worse too.
			if int64(int(d)*s.l.Trip+s.cpMax)*jointScale >= s.bestCost {
				s.pruned++
				return
			}
			s.setII(int(d))
			s.search(level+1, 0)
			if s.out {
				return
			}
		case level <= n:
			op := s.order[level-1]
			oldFill := s.fill
			s.placeOp(op, int(d))
			if int64(s.ii*s.l.Trip+s.fill)*jointScale >= s.bestCost {
				s.pruned++
			} else {
				s.search(level+1, 0)
			}
			s.unplaceOp(op)
			s.fill = oldFill
			s.regReady = false
			if s.out {
				return
			}
		default:
			v := s.vals[level-n-1]
			oldEnc := s.enc
			s.assignReg(v, int(d))
			if int64(s.ii*s.l.Trip+s.fill)*jointScale+int64(s.enc) >= s.bestCost {
				s.pruned++
				s.unassignReg(v)
				s.enc = oldEnc
			} else {
				s.search(level+1, 0)
				s.unassignReg(v)
				s.enc = oldEnc
			}
			if s.out {
				return
			}
		}
	}
}
