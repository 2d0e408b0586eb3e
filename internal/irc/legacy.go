package irc

import (
	"fmt"
	"math"

	"diffra/internal/ir"
	"diffra/internal/liveness"
	"diffra/internal/regalloc"
	"diffra/internal/telemetry"
)

// LegacyAllocate is the original map-based IRC implementation,
// retained verbatim as the quality oracle for the flat-state allocator
// (the same pattern as remap.LegacyGreedy and ilp.LegacySolve):
// Allocate must produce an identical assignment on every input, and
// the equivalence tests prove it. Its worklists are
// map[int]bool popped via an O(n) minKey scan, nodeMoves allocates a
// slice per moveRelated query, and haveWorklistMoves rescans every
// move state per main-loop turn — the exact hot-loop behaviors the
// flat allocator exists to fix. Do not optimize this file.
func LegacyAllocate(f *ir.Func, opts Options) (*ir.Func, *regalloc.Assignment, error) {
	if opts.K < 2 {
		return nil, nil, fmt.Errorf("irc: need at least 2 registers, have %d", opts.K)
	}
	if opts.Picker == nil {
		opts.Picker = FirstAvailable
	}
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 32
	}

	work := f.Clone()
	slots := opts.Slots
	if slots == nil {
		slots = regalloc.NewSlotAssigner()
	}
	unspillable := make(map[ir.Reg]bool)
	asn := &regalloc.Assignment{K: opts.K, StackParams: map[ir.Reg]int64{}}

	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, nil, fmt.Errorf("irc: no convergence after %d spill rounds (K=%d)", maxRounds, opts.K)
		}
		var rs *telemetry.Span
		if opts.Trace != nil {
			rs = opts.Trace.Child(fmt.Sprintf("round-%d", round))
		}
		opts.Trace.Add("rounds", 1)
		a := newLegacyState(work, opts, rs)
		if opts.PickerFactory != nil {
			a.opts.Picker = opts.PickerFactory(work, a.getAlias)
		}
		for v := range unspillable {
			if int(v) < len(a.cost) {
				a.cost[v] = math.Inf(1)
			}
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
			if !opts.KeepMoves {
				substituteAliases(work, a.getAlias)
			}
			opts.Trace.Add("spilled_vregs", int64(asn.SpilledVRegs))
			opts.Trace.Add("spill_instrs", int64(asn.SpillInstrs))
			opts.Trace.Add("coalesced_moves", int64(asn.CoalescedMoves))
			return work, asn, nil
		}
		spillSet := make(map[ir.Reg]bool, len(spilled))
		for _, v := range spilled {
			spillSet[ir.Reg(v)] = true
			asn.SpilledVRegs++
		}
		for _, p := range work.Params {
			if spillSet[p] {
				asn.StackParams[p] = slots.SlotOf(p)
			}
		}
		origin, inserted := regalloc.RewriteSpills(work, spillSet, slots)
		asn.SpillInstrs += inserted
		for tmp := range origin {
			unspillable[tmp] = true
		}
	}
}

type legacyState struct {
	f    *ir.Func
	opts Options
	k    int
	n    int

	adjSet   []map[int]bool
	adjList  [][]int
	degree   []int
	state    []nodeState
	alias    []int
	color    []int
	cost     []float64
	moveList [][]int

	moves  []*ir.Instr
	mstate []moveState

	simplifyWL map[int]bool
	freezeWL   map[int]bool
	spillWL    map[int]bool
	stack      []int

	trace         *telemetry.Span
	numCoalesced  int
	numSimplified int64
	numFrozen     int64
	numPotential  int64
}

func newLegacyState(f *ir.Func, opts Options, span *telemetry.Span) *legacyState {
	n := f.NumRegs()
	a := &legacyState{
		trace:      span,
		f:          f,
		opts:       opts,
		k:          opts.K,
		n:          n,
		adjSet:     make([]map[int]bool, n),
		adjList:    make([][]int, n),
		degree:     make([]int, n),
		state:      make([]nodeState, n),
		alias:      make([]int, n),
		color:      make([]int, n),
		moveList:   make([][]int, n),
		simplifyWL: make(map[int]bool),
		freezeWL:   make(map[int]bool),
		spillWL:    make(map[int]bool),
	}
	for i := 0; i < n; i++ {
		a.adjSet[i] = make(map[int]bool)
		a.alias[i] = i
		a.color[i] = -1
	}
	a.cost = liveness.SpillCosts(f)
	a.build()
	return a
}

// build constructs interference edges and move lists from liveness.
func (a *legacyState) build() {
	live := a.trace.Child("liveness")
	info := liveness.ComputeTraced(a.f, live)
	live.End()
	g := regalloc.Build(a.f, info)
	for u := 0; u < g.N; u++ {
		for _, v := range g.AdjList[u] {
			if v > u {
				a.addEdge(u, v)
			}
		}
	}
	for _, mv := range g.Moves {
		idx := len(a.moves)
		a.moves = append(a.moves, mv)
		a.mstate = append(a.mstate, mvWorklist)
		a.moveList[mv.Defs[0]] = append(a.moveList[mv.Defs[0]], idx)
		if mv.Uses[0] != mv.Defs[0] {
			a.moveList[mv.Uses[0]] = append(a.moveList[mv.Uses[0]], idx)
		}
	}
}

func (a *legacyState) addEdge(u, v int) {
	if u == v || a.adjSet[u][v] {
		return
	}
	a.adjSet[u][v] = true
	a.adjSet[v][u] = true
	a.adjList[u] = append(a.adjList[u], v)
	a.adjList[v] = append(a.adjList[v], u)
	a.degree[u]++
	a.degree[v]++
}

// run executes the IRC main loop and returns spilled node ids (empty
// on success); on success a.color holds a coloring for all root nodes.
func (a *legacyState) run() []int {
	a.makeWorklist()
	for {
		switch {
		case len(a.simplifyWL) > 0:
			a.simplify()
		case a.haveWorklistMoves():
			a.coalesce()
		case len(a.freezeWL) > 0:
			a.freeze()
		case len(a.spillWL) > 0:
			a.selectSpill()
		default:
			return a.assignColors()
		}
	}
}

func (a *legacyState) makeWorklist() {
	for v := 0; v < a.n; v++ {
		switch {
		case a.degree[v] >= a.k:
			a.state[v] = nsSpill
			a.spillWL[v] = true
		case a.moveRelated(v):
			a.state[v] = nsFreeze
			a.freezeWL[v] = true
		default:
			a.state[v] = nsSimplify
			a.simplifyWL[v] = true
		}
	}
}

func (a *legacyState) nodeMoves(v int) []int {
	var out []int
	for _, m := range a.moveList[v] {
		if a.mstate[m] == mvActive || a.mstate[m] == mvWorklist {
			out = append(out, m)
		}
	}
	return out
}

func (a *legacyState) moveRelated(v int) bool { return len(a.nodeMoves(v)) > 0 }

func (a *legacyState) haveWorklistMoves() bool {
	for _, s := range a.mstate {
		if s == mvWorklist {
			return true
		}
	}
	return false
}

// adjacent yields current neighbors: adjList minus stack/coalesced.
func (a *legacyState) adjacent(v int, fn func(int)) {
	for _, w := range a.adjList[v] {
		if a.state[w] != nsStack && a.state[w] != nsCoalesced {
			fn(w)
		}
	}
}

// minKey returns the smallest node id in a worklist, keeping the
// allocator fully deterministic despite map-based worklists.
func minKey(m map[int]bool) int {
	best := -1
	for v := range m {
		if best < 0 || v < best {
			best = v
		}
	}
	return best
}

func (a *legacyState) simplify() {
	v := minKey(a.simplifyWL)
	a.numSimplified++
	delete(a.simplifyWL, v)
	a.state[v] = nsStack
	a.stack = append(a.stack, v)
	a.adjacent(v, a.decrementDegree)
}

func (a *legacyState) decrementDegree(w int) {
	d := a.degree[w]
	a.degree[w] = d - 1
	if d == a.k {
		// w just became low-degree: enable its moves and its neighbors'.
		a.enableMoves(w)
		a.adjacent(w, a.enableMoves)
		if a.state[w] == nsSpill {
			delete(a.spillWL, w)
			if a.moveRelated(w) {
				a.state[w] = nsFreeze
				a.freezeWL[w] = true
			} else {
				a.state[w] = nsSimplify
				a.simplifyWL[w] = true
			}
		}
	}
}

func (a *legacyState) enableMoves(v int) {
	for _, m := range a.moveList[v] {
		if a.mstate[m] == mvActive {
			a.mstate[m] = mvWorklist
		}
	}
}

func (a *legacyState) getAlias(v int) int {
	for a.state[v] == nsCoalesced {
		v = a.alias[v]
	}
	return v
}

func (a *legacyState) addWorkList(v int) {
	if !a.moveRelated(v) && a.degree[v] < a.k {
		delete(a.freezeWL, v)
		a.state[v] = nsSimplify
		a.simplifyWL[v] = true
	}
}

// conservative is the Briggs test: coalescing is safe if the combined
// node has fewer than K neighbors of significant degree.
func (a *legacyState) conservative(u, v int) bool {
	seen := make(map[int]bool)
	cnt := 0
	count := func(w int) {
		if seen[w] {
			return
		}
		seen[w] = true
		d := a.degree[w]
		if a.adjSet[u][w] && a.adjSet[v][w] {
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

func (a *legacyState) coalesce() {
	var m = -1
	for i, s := range a.mstate {
		if s == mvWorklist {
			m = i
			break
		}
	}
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
	case a.adjSet[u][v]:
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

func (a *legacyState) combine(u, v int) {
	if a.freezeWL[v] {
		delete(a.freezeWL, v)
	} else {
		delete(a.spillWL, v)
	}
	a.state[v] = nsCoalesced
	a.alias[v] = u
	a.moveList[u] = append(a.moveList[u], a.moveList[v]...)
	a.enableMoves(v)
	a.cost[u] += a.cost[v]
	a.adjacent(v, func(t int) {
		a.addEdge(t, u)
		a.decrementDegree(t)
	})
	if a.degree[u] >= a.k && a.freezeWL[u] {
		delete(a.freezeWL, u)
		a.state[u] = nsSpill
		a.spillWL[u] = true
	}
}

func (a *legacyState) freeze() {
	v := minKey(a.freezeWL)
	a.numFrozen++
	delete(a.freezeWL, v)
	a.state[v] = nsSimplify
	a.simplifyWL[v] = true
	a.freezeMoves(v)
}

func (a *legacyState) freezeMoves(u int) {
	for _, m := range a.nodeMoves(u) {
		mv := a.moves[m]
		x := a.getAlias(int(mv.Defs[0]))
		y := a.getAlias(int(mv.Uses[0]))
		var w int
		if y == a.getAlias(u) {
			w = x
		} else {
			w = y
		}
		a.mstate[m] = mvFrozen
		if len(a.nodeMoves(w)) == 0 && a.degree[w] < a.k && a.state[w] == nsFreeze {
			delete(a.freezeWL, w)
			a.state[w] = nsSimplify
			a.simplifyWL[w] = true
		}
	}
}

// selectSpill picks the spill-worklist node with minimal cost/degree,
// the classic heuristic; spill temporaries carry infinite cost.
func (a *legacyState) selectSpill() {
	a.numPotential++
	best, bestScore := -1, math.Inf(1)
	for v := range a.spillWL {
		score := a.cost[v] / float64(a.degree[v]+1)
		if score < bestScore || (score == bestScore && (best == -1 || v < best)) {
			best, bestScore = v, score
		}
	}
	delete(a.spillWL, best)
	a.state[best] = nsSimplify
	a.simplifyWL[best] = true
	a.freezeMoves(best)
}

// assignColors pops the select stack, computing legal colors per node
// and delegating the choice to the configured picker.
func (a *legacyState) assignColors() []int {
	var spilled []int
	colorOf := func(v int) int { return a.color[a.getAlias(v)] }
	for len(a.stack) > 0 {
		v := a.stack[len(a.stack)-1]
		a.stack = a.stack[:len(a.stack)-1]
		forbidden := make(map[int]bool)
		for _, w := range a.adjList[v] {
			wr := a.getAlias(w)
			if a.state[wr] == nsColored {
				forbidden[a.color[wr]] = true
			}
		}
		var ok []int
		for c := 0; c < a.k; c++ {
			if !forbidden[c] {
				ok = append(ok, c)
			}
		}
		if len(ok) == 0 {
			a.state[v] = nsSpilled
			spilled = append(spilled, v)
			continue
		}
		a.state[v] = nsColored
		a.color[v] = a.opts.Picker(v, ok, colorOf)
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
