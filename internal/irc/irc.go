// Package irc implements iterated register coalescing (George &
// Appel, TOPLAS 1996), the graph-coloring register allocator the
// paper's low-end evaluation uses as its baseline ("we replace gcc's
// register allocation phase by implementing iterated register
// allocation [5]").
//
// The select stage is pluggable: when several colors are legal for a
// node, a ColorPicker chooses among them. The default picker takes the
// lowest-numbered color; the differential select scheme (paper §6)
// supplies a picker that minimizes the differential-encoding cost on
// the adjacency graph.
//
// The allocator's inner machinery runs on flat, reusable state carved
// from a scratch.Arena: bitset worklists with a min-index cursor
// (lowest-index pop at O(n/64)), a dense adjacency bit matrix
// with CSR neighbor lists, move incidence as spliceable linked lists,
// and a maintained worklist-move set so the main loop never rescans
// move states. Every choice has one deterministic tie-break: worklists
// pop their lowest node id, the coalesce step takes the lowest move
// index, and move lists keep insertion order. TestIRCGolden (in the
// root package) pins the resulting assignments.
package irc

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"diffra/internal/ir"
	"diffra/internal/liveness"
	"diffra/internal/regalloc"
	"diffra/internal/scratch"
	"diffra/internal/telemetry"
)

// ColorPicker chooses a color for vreg v among the legal okColors
// (non-empty, ascending). colorOf reports the already-fixed color of
// any vreg (alias-resolved), or -1 if that vreg has no color yet.
// okColors is a reused buffer: pickers must not retain it.
type ColorPicker func(v int, okColors []int, colorOf func(int) int) int

// FirstAvailable is the conventional picker: lowest-numbered color.
func FirstAvailable(_ int, okColors []int, _ func(int) int) int { return okColors[0] }

// PickerFactory builds a ColorPicker for the current (possibly
// spill-rewritten) function of an allocation round. aliasOf resolves a
// vreg to its coalescing representative, letting pickers account for
// merged live ranges on the adjacency graph.
type PickerFactory func(f *ir.Func, aliasOf func(int) int) ColorPicker

// maxRounds bounds the spill-rewrite iterations of one allocation.
const maxRounds = 32

// Options configures the allocator.
type Options struct {
	// K is the number of machine registers available for coloring.
	K int
	// PickerFactory, when set, builds each round's picker against the
	// round's rewritten function. Nil: FirstAvailable.
	PickerFactory PickerFactory
	// Slots supplies the stack-slot assigner; callers that already
	// inserted spill code (e.g. the optimal spilling allocator) pass
	// theirs so slot numbers stay disjoint. Nil: a fresh assigner.
	Slots *regalloc.SlotAssigner
	// Trace, when non-nil, is the allocator's phase span: Allocate adds
	// per-round child spans with simplify/coalesce/freeze/spill counters
	// under it. Allocate does not End it; the caller owns it.
	Trace *telemetry.Span
	// Scratch, when non-nil, supplies the arena the allocator carves
	// its per-round working state from; Allocate resets it at the start
	// of every round. Never changes the result — it exists so a warm
	// service worker reuses one arena across requests. Nil: a private
	// arena.
	Scratch *scratch.Arena
}

// Allocate colors f with opts.K registers, spilling as needed. It
// returns the rewritten function (a clone of f with spill code and
// with coalesced moves deleted) and the assignment for every vreg of
// the returned function.
func Allocate(f *ir.Func, opts Options) (*ir.Func, *regalloc.Assignment, error) {
	if opts.K < 2 {
		return nil, nil, fmt.Errorf("irc: need at least 2 registers, have %d", opts.K)
	}
	ar := opts.Scratch
	if ar == nil {
		ar = new(scratch.Arena)
	}

	work := f.Clone()
	slots := opts.Slots
	if slots == nil {
		slots = regalloc.NewSlotAssigner()
	}
	// Registers numbered from temps on are spill temporaries: they get
	// infinite spill cost.
	temps := work.NumRegs()
	asn := &regalloc.Assignment{K: opts.K}
	// Spill rewriting inserts instructions but never adds blocks or
	// edges, so block frequencies are loop-invariant across rounds.
	freq := work.BlockFreqs()

	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, nil, fmt.Errorf("irc: no convergence after %d spill rounds (K=%d)", maxRounds, opts.K)
		}
		rs := opts.Trace.Child(roundNames[round])
		opts.Trace.Add("rounds", 1)
		// The arena rewinds here: everything the previous round carved
		// (including its liveness Info and spill costs) is dead by now —
		// the only state carried across rounds lives on the heap (work,
		// asn, slots).
		ar.Reset()
		a := newAllocState(work, opts.K, rs, ar, freq)
		if opts.PickerFactory != nil {
			a.picker = opts.PickerFactory(work, a.getAlias)
		}
		for v := temps; v < a.n; v++ {
			a.cost[v] = math.Inf(1)
		}
		spilled := a.run()
		rs.Add("simplified", a.numSimplified)
		rs.Add("coalesced", int64(a.numCoalesced))
		rs.Add("frozen", a.numFrozen)
		rs.Add("potential_spills", a.numPotential)
		rs.Add("actual_spills", int64(len(spilled)))
		rs.End()
		if len(spilled) == 0 {
			asn.Color = make([]int, work.NumRegs())
			for v := range asn.Color {
				asn.Color[v] = a.color[a.getAlias(v)]
			}
			asn.CoalescedMoves += a.numCoalesced
			regalloc.SubstituteAliases(work, a.getAlias)
			opts.Trace.Add("spilled_vregs", int64(asn.SpilledVRegs))
			opts.Trace.Add("spill_instrs", int64(asn.SpillInstrs))
			opts.Trace.Add("coalesced_moves", int64(asn.CoalescedMoves))
			return work, asn, nil
		}
		asn.Spill(work, spilled, slots)
	}
}

// roundNames are the round spans' names, so a traced round formats
// nothing.
var roundNames = func() (names [maxRounds]string) {
	for i := range names {
		names[i] = "round-" + strconv.Itoa(i)
	}
	return names
}()

// Node/move worklist states. nodeState is a byte alias so state
// vectors carve straight from the arena; the two removed states
// (nsStack, nsCoalesced) are the enum's top values so adjacent() skips
// them with a single compare. Nothing else orders these states, so the
// ordering is free to serve that one test.
type nodeState = uint8

const (
	nsInitial nodeState = iota
	nsSimplify
	nsFreeze
	nsSpill
	nsSpilled
	nsColored
	nsStack
	nsCoalesced
)

type moveState = uint8

const (
	mvWorklist moveState = iota
	mvActive
	mvCoalesced
	mvConstrained
	mvFrozen
)

// idxSet is a dense index set that pops its minimum element in
// O(n/64) with zero allocation: a bitset plus a cursor that lower-
// bounds the first non-empty word.
type idxSet struct {
	words []uint64
	cur   int // index of the lowest possibly non-empty word
	count int
}

func (s *idxSet) init(ar *scratch.Arena, n int) {
	s.words = ar.Uint64s((n + 63) / 64)
	s.cur = len(s.words)
	s.count = 0
}

func (s *idxSet) has(i int) bool {
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

func (s *idxSet) add(i int) {
	w, b := i>>6, uint64(1)<<uint(i&63)
	if s.words[w]&b != 0 {
		return
	}
	s.words[w] |= b
	s.count++
	if w < s.cur {
		s.cur = w
	}
}

func (s *idxSet) remove(i int) {
	w, b := i>>6, uint64(1)<<uint(i&63)
	if s.words[w]&b == 0 {
		return
	}
	s.words[w] &^= b
	s.count--
}

// popMin removes and returns the smallest element, or -1 when empty.
func (s *idxSet) popMin() int {
	for w := s.cur; w < len(s.words); w++ {
		if x := s.words[w]; x != 0 {
			b := bits.TrailingZeros64(x)
			s.words[w] = x &^ (1 << uint(b))
			s.count--
			s.cur = w
			return w<<6 | b
		}
	}
	s.cur = len(s.words)
	return -1
}

// forEach visits the members in ascending order; fn must not mutate
// the set.
func (s *idxSet) forEach(fn func(i int)) {
	for w := s.cur; w < len(s.words); w++ {
		x := s.words[w]
		for x != 0 {
			b := bits.TrailingZeros64(x)
			fn(w<<6 | b)
			x &^= 1 << uint(b)
		}
	}
}

type allocState struct {
	f      *ir.Func
	picker ColorPicker
	k      int
	n      int
	ar     *scratch.Arena

	// Interference: a dense bit matrix (n rows of adjW words) for O(1)
	// membership, with per-node neighbor lists carved as one CSR flat
	// array. Edges added during coalescing append past a row's exact
	// capacity and migrate that row to the heap — rare enough not to
	// matter.
	adjBits []uint64
	adjW    int
	adjList [][]int

	degree []int
	state  []nodeState
	alias  []int
	color  []int
	cost   []float64

	// Moves: mstate per move, plus per-node incidence as linked entry
	// chains (entMove/entNext indexed by entry, head/tail per node) so
	// combine() splices v's chain onto u's in O(1): u's entries first,
	// then v's.
	moves   []*ir.Instr
	mstate  []moveState
	entMove []int
	entNext []int
	mlHead  []int
	mlTail  []int

	// Worklists. wlMoves mirrors {m : mstate[m] == mvWorklist}, so
	// haveWorklistMoves is O(1) instead of a full mstate rescan per
	// main-loop turn.
	simplifyWL idxSet
	freezeWL   idxSet
	spillWL    idxSet
	wlMoves    idxSet

	stack []int

	// Reused scratch: freezeMoves snapshot, legal-color buffer,
	// forbidden flags, and epoch marks for the Briggs test.
	nmBuf    []int
	okBuf    []int
	forbBuf  []bool
	seenMark []int
	epoch    int

	trace         *telemetry.Span
	numCoalesced  int
	numSimplified int64
	numFrozen     int64
	numPotential  int64
}

func newAllocState(f *ir.Func, k int, span *telemetry.Span, ar *scratch.Arena, freq []float64) *allocState {
	n := f.NumRegs()
	a := &allocState{
		trace:  span,
		f:      f,
		picker: FirstAvailable,
		k:      k,
		n:      n,
		ar:     ar,
	}
	a.adjW = (n + 63) / 64
	a.adjBits = ar.Uint64s(n * a.adjW)
	a.degree = ar.Ints(n)
	a.state = ar.Bytes(n)
	a.alias = ar.Ints(n)
	a.color = ar.Ints(n)
	for i := 0; i < n; i++ {
		a.alias[i] = i
		a.color[i] = -1
	}
	a.seenMark = ar.Ints(n)
	a.stack = ar.Ints(n)[:0]
	a.okBuf = ar.Ints(k)[:0]
	a.forbBuf = ar.Bools(k)
	a.simplifyWL.init(ar, n)
	a.freezeWL.init(ar, n)
	a.spillWL.init(ar, n)
	a.cost = liveness.SpillCostsWeighted(f, freq, ar)
	a.build()
	return a
}

// build constructs interference edges and the move list from liveness
// through regalloc.Interferences, the rule every graph builder applies;
// moves are indexed in its walk order. Edges land in the bit matrix first
// (deduplicating), then one pass per row emits the CSR neighbor lists
// in ascending order — a neighbor order the main loop is provably
// insensitive to.
func (a *allocState) build() {
	live := a.trace.Child("liveness")
	info := liveness.ComputeScratch(a.f, live, a.ar)
	live.End()

	nm := 0
	for _, b := range a.f.Blocks {
		for _, in := range b.Instrs {
			if in.IsMove() {
				nm++
			}
		}
	}
	a.moves = make([]*ir.Instr, 0, nm)
	a.mstate = a.ar.Bytes(nm) // zeroed: every move starts mvWorklist

	regalloc.Interferences(a.f, info, func(in *ir.Instr) { a.moves = append(a.moves, in) }, a.matAdd)

	// Freeze the matrix into CSR neighbor lists.
	total := 0
	for u := 0; u < a.n; u++ {
		total += a.degree[u]
	}
	flat := a.ar.Ints(total)
	a.adjList = a.ar.IntSlices(a.n)
	off := 0
	for u := 0; u < a.n; u++ {
		lst := flat[off : off : off+a.degree[u]]
		row := a.adjBits[u*a.adjW : (u+1)*a.adjW]
		for wi, w := range row {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				lst = append(lst, wi<<6|b)
				w &^= 1 << uint(b)
			}
		}
		a.adjList[u] = lst
		off += a.degree[u]
	}

	// Move incidence chains in move order: per move, destination
	// first, then source if distinct.
	a.entMove = a.ar.Ints(2 * nm)[:0]
	a.entNext = a.ar.Ints(2 * nm)[:0]
	a.mlHead = a.ar.Ints(a.n)
	a.mlTail = a.ar.Ints(a.n)
	for i := 0; i < a.n; i++ {
		a.mlHead[i] = -1
		a.mlTail[i] = -1
	}
	a.wlMoves.init(a.ar, nm)
	for idx, mv := range a.moves {
		a.addIncidence(int(mv.Defs[0]), idx)
		if mv.Uses[0] != mv.Defs[0] {
			a.addIncidence(int(mv.Uses[0]), idx)
		}
		a.wlMoves.add(idx)
	}
	a.nmBuf = a.ar.Ints(2 * nm)[:0]
}

func (a *allocState) addIncidence(v, m int) {
	e := len(a.entMove)
	a.entMove = append(a.entMove, m)
	a.entNext = append(a.entNext, -1)
	if a.mlHead[v] < 0 {
		a.mlHead[v] = e
	} else {
		a.entNext[a.mlTail[v]] = e
	}
	a.mlTail[v] = e
}

// matAdd records an interference edge in the bit matrix, maintaining
// degrees; used only during build, before the CSR lists are frozen.
func (a *allocState) matAdd(u, v int) {
	if u == v {
		return
	}
	wi := u*a.adjW + v>>6
	b := uint64(1) << uint(v&63)
	if a.adjBits[wi]&b != 0 {
		return
	}
	a.adjBits[wi] |= b
	a.adjBits[v*a.adjW+u>>6] |= 1 << uint(u&63)
	a.degree[u]++
	a.degree[v]++
}

func (a *allocState) hasEdge(u, v int) bool {
	return a.adjBits[u*a.adjW+v>>6]&(1<<uint(v&63)) != 0
}

// addEdge inserts an edge after build (during coalescing), appending
// to the frozen CSR rows.
func (a *allocState) addEdge(u, v int) {
	if u == v || a.hasEdge(u, v) {
		return
	}
	a.adjBits[u*a.adjW+v>>6] |= 1 << uint(v&63)
	a.adjBits[v*a.adjW+u>>6] |= 1 << uint(u&63)
	a.adjList[u] = append(a.adjList[u], v)
	a.adjList[v] = append(a.adjList[v], u)
	a.degree[u]++
	a.degree[v]++
}

// run executes the IRC main loop and returns spilled node ids (empty
// on success); on success a.color holds a coloring for all root nodes.
func (a *allocState) run() []int {
	a.makeWorklist()
	for {
		switch {
		case a.simplifyWL.count > 0:
			a.simplify()
		case a.haveWorklistMoves():
			a.coalesce()
		case a.freezeWL.count > 0:
			a.freeze()
		case a.spillWL.count > 0:
			a.selectSpill()
		default:
			return a.assignColors()
		}
	}
}

func (a *allocState) makeWorklist() {
	for v := 0; v < a.n; v++ {
		switch {
		case a.degree[v] >= a.k:
			a.state[v] = nsSpill
			a.spillWL.add(v)
		case a.moveRelated(v):
			a.state[v] = nsFreeze
			a.freezeWL.add(v)
		default:
			a.state[v] = nsSimplify
			a.simplifyWL.add(v)
		}
	}
}

// moveRelated reports whether v has an active or worklist move. The
// walk allocates nothing.
func (a *allocState) moveRelated(v int) bool {
	for e := a.mlHead[v]; e >= 0; e = a.entNext[e] {
		if st := a.mstate[a.entMove[e]]; st == mvActive || st == mvWorklist {
			return true
		}
	}
	return false
}

// haveWorklistMoves is O(1): wlMoves tracks exactly the moves in
// mvWorklist state, so no main-loop turn rescans mstate.
func (a *allocState) haveWorklistMoves() bool { return a.wlMoves.count > 0 }

// adjacent yields current neighbors: adjList minus stack/coalesced —
// one compare per neighbor thanks to the state ordering.
func (a *allocState) adjacent(v int, fn func(int)) {
	st := a.state
	for _, w := range a.adjList[v] {
		if st[w] < nsStack {
			fn(w)
		}
	}
}

func (a *allocState) simplify() {
	v := a.simplifyWL.popMin()
	a.numSimplified++
	a.state[v] = nsStack
	a.stack = append(a.stack, v)
	a.adjacent(v, a.decrementDegree)
}

func (a *allocState) decrementDegree(w int) {
	d := a.degree[w]
	a.degree[w] = d - 1
	if d == a.k {
		// w just became low-degree: enable its moves and its neighbors'.
		a.enableMoves(w)
		a.adjacent(w, a.enableMoves)
		if a.state[w] == nsSpill {
			a.spillWL.remove(w)
			if a.moveRelated(w) {
				a.state[w] = nsFreeze
				a.freezeWL.add(w)
			} else {
				a.state[w] = nsSimplify
				a.simplifyWL.add(w)
			}
		}
	}
}

func (a *allocState) enableMoves(v int) {
	for e := a.mlHead[v]; e >= 0; e = a.entNext[e] {
		m := a.entMove[e]
		if a.mstate[m] == mvActive {
			a.mstate[m] = mvWorklist
			a.wlMoves.add(m)
		}
	}
}

func (a *allocState) getAlias(v int) int {
	for a.state[v] == nsCoalesced {
		v = a.alias[v]
	}
	return v
}

func (a *allocState) addWorkList(v int) {
	if !a.moveRelated(v) && a.degree[v] < a.k {
		a.freezeWL.remove(v)
		a.state[v] = nsSimplify
		a.simplifyWL.add(v)
	}
}

// conservative is the Briggs test: coalescing is safe if the combined
// node has fewer than K neighbors of significant degree. A neighbor of
// both is counted once, deduplicated by an epoch mark per node.
func (a *allocState) conservative(u, v int) bool {
	a.epoch++
	epoch := a.epoch
	cnt := 0
	count := func(w int) {
		if a.seenMark[w] == epoch {
			return
		}
		a.seenMark[w] = epoch
		d := a.degree[w]
		if a.hasEdge(u, w) && a.hasEdge(v, w) {
			d-- // shared neighbor loses one edge after the merge
		}
		if d >= a.k {
			cnt++
		}
	}
	a.adjacent(u, count)
	a.adjacent(v, count)
	return cnt < a.k
}

func (a *allocState) coalesce() {
	m := a.wlMoves.popMin() // the lowest move index
	if m < 0 {
		return
	}
	mv := a.moves[m]
	x := a.getAlias(int(mv.Defs[0]))
	y := a.getAlias(int(mv.Uses[0]))
	u, v := x, y
	switch {
	case u == v:
		a.mstate[m] = mvCoalesced
		a.numCoalesced++
		a.addWorkList(u)
	case a.hasEdge(u, v):
		a.mstate[m] = mvConstrained
		a.addWorkList(u)
		a.addWorkList(v)
	case a.conservative(u, v):
		a.mstate[m] = mvCoalesced
		a.numCoalesced++
		a.combine(u, v)
		a.addWorkList(u)
	default:
		a.mstate[m] = mvActive
	}
}

func (a *allocState) combine(u, v int) {
	if a.freezeWL.has(v) {
		a.freezeWL.remove(v)
	} else {
		a.spillWL.remove(v)
	}
	a.state[v] = nsCoalesced
	a.alias[v] = u
	// Splice v's move chain onto u's: u's entries first, then v's.
	// v keeps its head (it is never merged again), so enableMoves(v)
	// still walks exactly v's own entries.
	if a.mlHead[v] >= 0 {
		if a.mlHead[u] < 0 {
			a.mlHead[u] = a.mlHead[v]
		} else {
			a.entNext[a.mlTail[u]] = a.mlHead[v]
		}
		a.mlTail[u] = a.mlTail[v]
	}
	a.enableMoves(v)
	a.cost[u] += a.cost[v]
	a.adjacent(v, func(t int) {
		a.addEdge(t, u)
		a.decrementDegree(t)
	})
	if a.degree[u] >= a.k && a.freezeWL.has(u) {
		a.freezeWL.remove(u)
		a.state[u] = nsSpill
		a.spillWL.add(u)
	}
}

func (a *allocState) freeze() {
	v := a.freezeWL.popMin()
	a.numFrozen++
	a.state[v] = nsSimplify
	a.simplifyWL.add(v)
	a.freezeMoves(v)
}

func (a *allocState) freezeMoves(u int) {
	// Snapshot u's active/worklist moves first: the body mutates move
	// states, and a duplicate entry (u merged from both endpoints of
	// one move) must still be visited twice.
	buf := a.nmBuf[:0]
	for e := a.mlHead[u]; e >= 0; e = a.entNext[e] {
		m := a.entMove[e]
		if st := a.mstate[m]; st == mvActive || st == mvWorklist {
			buf = append(buf, m)
		}
	}
	for _, m := range buf {
		mv := a.moves[m]
		x := a.getAlias(int(mv.Defs[0]))
		y := a.getAlias(int(mv.Uses[0]))
		var w int
		if y == a.getAlias(u) {
			w = x
		} else {
			w = y
		}
		if a.mstate[m] == mvWorklist {
			a.wlMoves.remove(m)
		}
		a.mstate[m] = mvFrozen
		if !a.moveRelated(w) && a.degree[w] < a.k && a.state[w] == nsFreeze {
			a.freezeWL.remove(w)
			a.state[w] = nsSimplify
			a.simplifyWL.add(w)
		}
	}
}

// selectSpill picks the spill-worklist node with minimal cost/degree,
// the classic heuristic; spill temporaries carry infinite cost. The
// ascending scan makes the lowest node id win score ties.
func (a *allocState) selectSpill() {
	a.numPotential++
	best, bestScore := -1, math.Inf(1)
	a.spillWL.forEach(func(v int) {
		score := a.cost[v] / float64(a.degree[v]+1)
		if score < bestScore {
			best, bestScore = v, score
		}
	})
	if best < 0 {
		// No score is below +Inf: the block frequencies overflowed
		// (ir.BlockFreqs is an uncapped 10^depth). Spill the lowest
		// candidate rather than none.
		best = a.spillWL.popMin()
	}
	a.spillWL.remove(best)
	a.state[best] = nsSimplify
	a.simplifyWL.add(best)
	a.freezeMoves(best)
}

// assignColors pops the select stack, computing legal colors per node
// and delegating the choice to the configured picker. The forbidden
// set is a reused K-sized flag buffer; the ok list a reused K-cap
// slice (pickers must not retain it).
func (a *allocState) assignColors() []int {
	var spilled []int
	colorOf := func(v int) int { return a.color[a.getAlias(v)] }
	forb := a.forbBuf
	for len(a.stack) > 0 {
		v := a.stack[len(a.stack)-1]
		a.stack = a.stack[:len(a.stack)-1]
		for c := range forb {
			forb[c] = false
		}
		for _, w := range a.adjList[v] {
			wr := a.getAlias(w)
			if a.state[wr] == nsColored {
				forb[a.color[wr]] = true
			}
		}
		ok := a.okBuf[:0]
		for c := 0; c < a.k; c++ {
			if !forb[c] {
				ok = append(ok, c)
			}
		}
		if len(ok) == 0 {
			a.state[v] = nsSpilled
			spilled = append(spilled, v)
			continue
		}
		a.state[v] = nsColored
		a.color[v] = a.picker(v, ok, colorOf)
	}
	if len(spilled) > 0 {
		return spilled
	}
	for v := 0; v < a.n; v++ {
		if a.state[v] == nsCoalesced {
			// Note: the node keeps nsCoalesced so getAlias stays valid
			// for the caller's alias substitution.
			a.color[v] = a.color[a.getAlias(v)]
		}
	}
	return nil
}
