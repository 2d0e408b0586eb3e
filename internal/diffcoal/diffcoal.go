// Package diffcoal implements differential coalesce (paper §7): the
// third and strongest integration of differential encoding with
// register allocation. It builds on the optimal spilling allocator —
// spill decisions are made first by the ILP phase, leaving a graph
// that should color without further spills — and then coalesces moves
// one at a time. Every remaining move is tried tentatively; the
// rebuild & simplify + differential select subroutine reports either
// "uncolorable" or the differential-encoding cost of the resulting
// coloring. The candidate with the largest total cost reduction is
// committed, where cost counts both set_last_reg instructions (from
// the adjacency graph, condition (3)) and the move instructions still
// in the code — the paper weighs the two equally, "a set_last_reg
// instruction is of the same computation cost as a move instruction".
package diffcoal

import (
	"errors"
	"fmt"

	"diffra/internal/adjacency"
	"diffra/internal/diffsel"
	"diffra/internal/ir"
	"diffra/internal/liveness"
	"diffra/internal/ospill"
	"diffra/internal/regalloc"
	"diffra/internal/telemetry"
)

// Options configures the allocator.
type Options struct {
	// RegN is the number of addressable registers (the coloring K).
	RegN int
	// DiffN is the encodable difference count (condition (3)).
	DiffN int
	// MaxNodes caps the spill ILP per independently-solved work item
	// (0: solver default).
	MaxNodes int
	// SpillWorkers is the goroutine count for the spill ILP's
	// deterministic parallel search (0 or 1: serial). The spill set is
	// bit-identical at any worker count.
	SpillWorkers int
	// MaxRounds bounds fallback spill rounds (0: 16).
	MaxRounds int
	// Trace, when non-nil, is the allocator's phase span: the ILP spill
	// decision and the coalescing loop report on it. Allocate does not
	// End it; the caller owns it.
	Trace *telemetry.Span
	// Cancel, when non-nil, is polled by the spill ILP and between
	// coalescing probes; returning true aborts Allocate with
	// ErrCancelled.
	Cancel func() bool
}

// ErrCancelled is returned by Allocate when Options.Cancel aborted the
// allocation (typically a caller's context deadline or cancellation).
var ErrCancelled = errors.New("diffcoal: allocation cancelled")

// Stats reports the allocation.
type Stats struct {
	Spill ospill.Stats
	// Coalesced counts committed coalesces; Attempts counts tentative
	// colorability probes (the O(#moves^2) term of §7).
	Coalesced int
	Attempts  int
	// FallbackSpills counts ranges spilled because the conservative
	// simplify got stuck even before coalescing.
	FallbackSpills int
	// InitialCost and FinalCost are the combined move + set_last_reg
	// costs (frequency weighted) before and after the coalescing loop;
	// the algorithm guarantees FinalCost <= InitialCost.
	InitialCost float64
	FinalCost   float64
	// FinalDiffCost is the adjacency-graph cost of the final coloring.
	FinalDiffCost float64
}

// Allocate runs optimal spilling followed by differential coalescing
// and coloring with differential select. The returned function has
// spill code inserted, coalesced moves removed, and every vreg colored
// in [0, RegN).
func Allocate(f *ir.Func, opts Options) (*ir.Func, *regalloc.Assignment, *Stats, error) {
	if opts.RegN < 2 {
		return nil, nil, nil, fmt.Errorf("diffcoal: RegN = %d", opts.RegN)
	}
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 16
	}
	st := &Stats{}

	work := f.Clone()
	ilpSpan := opts.Trace.Child("ilp")
	spills, spillStats := ospill.DecideSpillsCancel(work, opts.RegN, opts.MaxNodes, opts.SpillWorkers, opts.Cancel)
	ilpSpan.Add("constraints", int64(spillStats.Constraints))
	ilpSpan.Add("nodes", int64(spillStats.ILPNodes))
	ilpSpan.Add("components", int64(spillStats.ILPComponents))
	ilpSpan.Add("reductions", int64(spillStats.ILPReductions))
	ilpSpan.Add("pruned", int64(spillStats.ILPPruned))
	ilpSpan.Add("spilled_ranges", int64(spillStats.ILPSpilled))
	ilpSpan.SetAttr("optimal", spillStats.ILPOptimal)
	ilpSpan.End()
	if spillStats.Cancelled {
		return nil, nil, nil, ErrCancelled
	}
	if !spillStats.ILPOptimal {
		telemetry.Default.Counter("spill_nonoptimal").Inc()
	}
	st.Spill = spillStats
	slots := regalloc.NewSlotAssigner()
	stackParams := map[ir.Reg]int64{}
	unspillable := map[int]bool{}
	for _, p := range work.Params {
		if spills[p] {
			stackParams[p] = slots.SlotOf(p)
		}
	}
	spillInstrs := 0
	if len(spills) > 0 {
		origin, n := regalloc.RewriteSpills(work, spills, slots)
		spillInstrs += n
		for t := range origin {
			unspillable[int(t)] = true
		}
	}

	var cs *coalesceState
	for round := 0; ; round++ {
		if opts.Cancel != nil && opts.Cancel() {
			return nil, nil, nil, ErrCancelled
		}
		if round >= maxRounds {
			return nil, nil, nil, fmt.Errorf("diffcoal: no colorable graph after %d fallback rounds", maxRounds)
		}
		cs = newCoalesceState(work, opts)
		cs.unspillable = unspillable
		cs.cur.build(cs.ig, cs.alias)
		if stuck := cs.simplify(cs.cur); stuck < 0 {
			break
		} else {
			// Conservative simplify got stuck: spill the cheapest stuck
			// node and retry (pressure <= K does not imply colorable).
			// Reload temporaries are never picked — re-spilling them
			// cannot reduce pressure.
			st.FallbackSpills++
			set := map[ir.Reg]bool{ir.Reg(stuck): true}
			for _, p := range work.Params {
				if set[p] {
					stackParams[p] = slots.SlotOf(p)
				}
			}
			origin, n := regalloc.RewriteSpills(work, set, slots)
			spillInstrs += n
			for t := range origin {
				unspillable[int(t)] = true
			}
		}
	}

	coalSpan := opts.Trace.Child("coalesce")
	st.Coalesced, st.Attempts, st.InitialCost, st.FinalCost = cs.run()
	if opts.Cancel != nil && opts.Cancel() {
		coalSpan.End()
		return nil, nil, nil, ErrCancelled
	}
	coalSpan.Add("attempts", int64(st.Attempts))
	coalSpan.Add("committed", int64(st.Coalesced))
	coalSpan.Add("rejected", int64(st.Attempts-st.Coalesced))
	coalSpan.SetAttr("initial_cost", st.InitialCost)
	coalSpan.SetAttr("final_cost", st.FinalCost)
	coalSpan.End()
	opts.Trace.Add("fallback_spills", int64(st.FallbackSpills))
	// run leaves cs.cur holding the merged graph of the final aliases.
	g := cs.cur
	if !cs.color(g) {
		return nil, nil, nil, fmt.Errorf("diffcoal: final graph uncolorable")
	}
	st.FinalDiffCost = cs.diffCost(g)

	// Apply committed coalesces to the code and drop internal moves.
	substituteAliases(work, func(v int) int { return g.root[v] })

	asn := &regalloc.Assignment{
		K:              opts.RegN,
		Color:          make([]int, work.NumRegs()),
		SpilledVRegs:   st.Spill.ILPSpilled + st.FallbackSpills,
		SpillInstrs:    spillInstrs,
		CoalescedMoves: st.Coalesced,
		StackParams:    stackParams,
	}
	for v := range asn.Color {
		asn.Color[v] = g.colors[g.root[v]]
	}
	return work, asn, st, nil
}

// coalesceState holds the graphs for one allocation attempt.
type coalesceState struct {
	opts        Options
	ig          *regalloc.Graph
	adj         *adjacency.CSR
	alias       []int
	moves       []moveInfo
	cost        []float64
	unspillable map[int]bool

	// cur is the merged graph of alias; probe is rebuilt over trial
	// for every tentative coalesce. forbidden is the color scratch.
	cur, probe *mergedGraph
	trial      []int
	forbidden  []bool
}

type moveInfo struct {
	in     *ir.Instr
	weight float64
}

func newCoalesceState(f *ir.Func, opts Options) *coalesceState {
	n := f.NumRegs()
	cs := &coalesceState{
		opts:      opts,
		ig:        regalloc.Build(f, liveness.Compute(f)),
		adj:       adjacency.BuildVReg(f),
		cost:      liveness.SpillCosts(f),
		alias:     make([]int, n),
		cur:       newMergedGraph(n),
		probe:     newMergedGraph(n),
		trial:     make([]int, n),
		forbidden: make([]bool, opts.RegN),
	}
	for v := range cs.alias {
		cs.alias[v] = v
	}
	freq := f.BlockFreqs()
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.IsMove() {
				cs.moves = append(cs.moves, moveInfo{in: in, weight: freq[b.Index]})
			}
		}
	}
	return cs
}

func root(alias []int, v int) int {
	for alias[v] != v {
		v = alias[v]
	}
	return v
}

// mergedGraph is the interference graph over the roots of one alias
// vector, as flat per-root neighbor and member lists, together with one
// simplify-and-color pass over it. Its slices are sized once and
// refilled by every build.
type mergedGraph struct {
	root  []int // root[v]: v's alias root
	nodes []int // the roots, ascending
	// Root r's distinct neighbor roots are nbr[nbrOff[r]:nbrOff[r+1]];
	// its members, ascending, are mem[memOff[r]:memOff[r+1]]. Both are
	// empty for a non-root.
	nbrOff, nbr []int
	memOff, mem []int
	seen        []int // seen[s] == r+1 once s is listed as r's neighbor

	degree  []int
	removed []bool
	order   []int // simplify's removal order
	colors  []int // colors[r]: root r's color, or -1
}

func newMergedGraph(n int) *mergedGraph {
	return &mergedGraph{
		root:    make([]int, n),
		nbrOff:  make([]int, n+1),
		memOff:  make([]int, n+1),
		mem:     make([]int, n),
		seen:    make([]int, n),
		degree:  make([]int, n),
		removed: make([]bool, n),
		colors:  make([]int, n),
	}
}

func (g *mergedGraph) neighbors(r int) []int { return g.nbr[g.nbrOff[r]:g.nbrOff[r+1]] }
func (g *mergedGraph) members(r int) []int   { return g.mem[g.memOff[r]:g.memOff[r+1]] }

// build merges ig over alias's roots: two roots interfere when any of
// their members do.
func (g *mergedGraph) build(ig *regalloc.Graph, alias []int) {
	n := len(alias)
	g.nodes = g.nodes[:0]
	clear(g.memOff)
	for v := range alias {
		r := root(alias, v)
		g.root[v] = r
		if r == v {
			g.nodes = append(g.nodes, v)
		}
		g.memOff[r]++
	}
	// Counting sort on root: after the running sum memOff[r] is the end
	// of r's members, and filling backwards leaves it at their start.
	for r := 1; r <= n; r++ {
		g.memOff[r] += g.memOff[r-1]
	}
	for v := n - 1; v >= 0; v-- {
		r := g.root[v]
		g.memOff[r]--
		g.mem[g.memOff[r]] = v
	}

	clear(g.seen)
	g.nbr = g.nbr[:0]
	for r := 0; r < n; r++ {
		g.nbrOff[r] = len(g.nbr)
		if g.root[r] != r {
			continue
		}
		for _, u := range g.members(r) {
			for _, w := range ig.AdjList[u] {
				if s := g.root[w]; s != r && g.seen[s] != r+1 {
					g.seen[s] = r + 1
					g.nbr = append(g.nbr, s)
				}
			}
		}
	}
	g.nbrOff[n] = len(g.nbr)
}

// adjacent reports whether roots x and y interfere.
func (g *mergedGraph) adjacent(x, y int) bool {
	for _, s := range g.neighbors(x) {
		if s == y {
			return true
		}
	}
	return false
}

// simplify removes nodes of degree < K repeatedly (lowest id first,
// deterministic), recording the removal order. It returns -1 if every
// node simplifies (the graph is K-colorable by this test) or the
// cheapest stuck node otherwise.
func (cs *coalesceState) simplify(g *mergedGraph) int {
	for _, r := range g.nodes {
		g.degree[r] = len(g.neighbors(r))
		g.removed[r] = false
	}
	g.order = g.order[:0]
	for len(g.order) < len(g.nodes) {
		pick := -1
		for _, r := range g.nodes {
			if !g.removed[r] && g.degree[r] < cs.opts.RegN {
				pick = r
				break
			}
		}
		if pick < 0 {
			// Stuck: report the cheapest remaining spillable node for
			// fallback spilling (never a reload temporary — re-spilling
			// one cannot reduce pressure).
			best, bestCost := -1, 0.0
			anyBest, anyCost := -1, 0.0
			for _, r := range g.nodes {
				if g.removed[r] {
					continue
				}
				c := cs.cost[r]
				if anyBest < 0 || c < anyCost {
					anyBest, anyCost = r, c
				}
				if cs.unspillable[r] {
					continue
				}
				if best < 0 || c < bestCost {
					best, bestCost = r, c
				}
			}
			if best < 0 {
				best = anyBest
			}
			return best
		}
		g.removed[pick] = true
		g.order = append(g.order, pick)
		for _, w := range g.neighbors(pick) {
			if !g.removed[w] {
				g.degree[w]--
			}
		}
	}
	return -1
}

// color colors g with differential select: nodes are popped in reverse
// simplify order and each takes the legal color with minimal adjacency
// cost, lowest color on ties. It reports false when simplify gets
// stuck.
func (cs *coalesceState) color(g *mergedGraph) bool {
	if cs.simplify(g) >= 0 {
		return false
	}
	for _, r := range g.nodes {
		g.colors[r] = -1
	}
	colorOf := func(v int) int { return g.colors[g.root[v]] }
	aliasOf := func(v int) int { return g.root[v] }
	params := diffsel.Params{RegN: cs.opts.RegN, DiffN: cs.opts.DiffN}
	for i := len(g.order) - 1; i >= 0; i-- {
		r := g.order[i]
		clear(cs.forbidden)
		for _, w := range g.neighbors(r) {
			if c := g.colors[w]; c >= 0 {
				cs.forbidden[c] = true
			}
		}
		bestC, bestCost := -1, 0.0
		for c := 0; c < cs.opts.RegN; c++ {
			if cs.forbidden[c] {
				continue
			}
			cost := diffsel.PickCost(cs.adj, g.members(r), r, c, colorOf, aliasOf, params)
			if bestC < 0 || cost < bestCost {
				bestC, bestCost = c, cost
			}
		}
		if bestC < 0 {
			return false
		}
		g.colors[r] = bestC
	}
	return true
}

// diffCost evaluates the adjacency-graph cost of g's coloring.
func (cs *coalesceState) diffCost(g *mergedGraph) float64 {
	return cs.adj.Cost(func(v int) int { return g.colors[g.root[v]] }, cs.opts.RegN, cs.opts.DiffN)
}

// moveCost sums the weights of moves still external in g.
func (cs *coalesceState) moveCost(g *mergedGraph) float64 {
	t := 0.0
	for _, m := range cs.moves {
		if g.root[m.in.Defs[0]] != g.root[m.in.Uses[0]] {
			t += m.weight
		}
	}
	return t
}

// run is the §7 main loop: evaluate every remaining coalesce
// candidate, commit the best cost reduction, repeat. Returns the
// number of committed coalesces and of attempts, and leaves cs.cur
// holding the merged graph of the committed aliases.
func (cs *coalesceState) run() (coalesced, attempts int, initial, final float64) {
	cur, probe := cs.cur, cs.probe
	cur.build(cs.ig, cs.alias)
	if !cs.color(cur) {
		return 0, 0, 0, 0
	}
	current := cs.diffCost(cur) + cs.moveCost(cur)
	initial = current

	for {
		bestCost := current
		bestX, bestY := -1, -1
		for _, m := range cs.moves {
			if cs.opts.Cancel != nil && cs.opts.Cancel() {
				return coalesced, attempts, initial, current
			}
			x := cur.root[m.in.Defs[0]]
			y := cur.root[m.in.Uses[0]]
			if x == y {
				continue
			}
			if cur.adjacent(x, y) {
				continue // constrained: interfering endpoints
			}
			// Merge into the smaller id for determinism.
			if y < x {
				x, y = y, x
			}
			copy(cs.trial, cs.alias)
			cs.trial[y] = x
			attempts++
			probe.build(cs.ig, cs.trial)
			if !cs.color(probe) {
				continue
			}
			c := cs.diffCost(probe) + cs.moveCost(probe)
			if c < bestCost {
				bestCost, bestX, bestY = c, x, y
			}
		}
		if bestX < 0 {
			return coalesced, attempts, initial, current
		}
		cs.alias[bestY] = bestX
		cur.build(cs.ig, cs.alias)
		current = bestCost
		coalesced++
	}
}

// substituteAliases rewrites operands to their coalescing roots and
// deletes moves made internal, mirroring irc's post-pass.
func substituteAliases(f *ir.Func, rootOf func(int) int) {
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			for i, u := range in.Uses {
				in.Uses[i] = ir.Reg(rootOf(int(u)))
			}
			for i, d := range in.Defs {
				in.Defs[i] = ir.Reg(rootOf(int(d)))
			}
			if in.IsMove() && in.Defs[0] == in.Uses[0] {
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	for i, p := range f.Params {
		f.Params[i] = ir.Reg(rootOf(int(p)))
	}
}
