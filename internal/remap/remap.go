// Package remap implements differential remapping (paper §5), the
// post-pass approach: after any register allocator has assigned
// machine registers, permute the register numbers to minimize the
// differential-encoding cost on the register adjacency graph. A
// permutation never invalidates the allocation — co-live ranges keep
// distinct registers — so remapping composes with every allocator.
//
// Two searches are provided, matching the paper: exhaustive over all
// RegN! permutations (tractable for small RegN) and a greedy
// steepest-descent over pairwise swaps restarted from many initial
// register vectors (the paper uses 1000). Both take the graph in the
// one form adjacency builds it, an *adjacency.CSR.
//
// The greedy multi-start search is parallel and deterministic: every
// restart derives its own RNG stream from (Seed, restart index), so
// restarts are independent work items that par.For hands out to
// Options.Workers goroutines, and the best permutation — ties broken
// by lowest restart index — is bit-identical at any worker count.
// Each descent step probes every free pair in one pass, each probe in
// O(1) against a register-cost matrix a[p][r]: up to a per-row
// constant, the violated weight of p's incident edges if p held
// register r. A committed swap of (i, j) changes the rows of N(i) and
// N(j) only, which the engine repairs in place.
//
// The descent runs in exact int64 fixed point. Each search scales all
// edge weights by one power of two, chosen from the heaviest total
// incident weight of a free register so that no matrix entry or swap
// delta can overflow (maxIncidentLog2). Because integer sums do not
// depend on their order, a moved neighbor's edge is updated over the
// shorter of its two cyclic windows — the DiffN registers where it is
// satisfied or the RegN−DiffN where it is violated — so a committed
// swap costs O(deg · min(DiffN, RegN−DiffN)). Every committed swap
// strictly lowers an integer cost that is bounded below, so every
// descent terminates.
//
// Exactness contract: when every weight is a whole multiple of the
// scale's unit (all weights of the §8 kernels are multiples of 1/2),
// each probe equals the exact swap delta times the scale, so the
// search takes exactly the moves exact real arithmetic takes — the
// moves of a CSR.SwapDelta rescan — and Perm, Cost, Evaluated and the
// trajectory attribute are reproducible bit for bit. Other weights are
// rounded to the scale: non-dyadic ones such as the 10/3 of a
// three-predecessor join, or ones more than ~2^58 times lighter than a
// register's incident total. For such inputs the descent follows the
// rounded costs, and its moves can differ from an exact search's by
// the rounding. Result.Cost is always the float64 PermCost of Perm
// over the original weights; finiteWeight gives the rule for weights
// that are not finite.
package remap

import (
	"cmp"
	"math"
	"runtime"
	"slices"

	"diffra/internal/adjacency"
	"diffra/internal/par"
	"diffra/internal/telemetry"
)

// Options configures the search.
type Options struct {
	RegN  int
	DiffN int
	// Pinned registers keep their numbers (special-purpose registers
	// and calling-convention registers repaired separately, §9.2–9.3).
	Pinned map[int]bool
	// Restarts is the number of random initial register vectors for
	// the greedy search (0 means the paper's 1000).
	Restarts int
	// Seed makes the random restarts deterministic.
	Seed int64
	// Workers bounds the goroutines the greedy search shards its
	// restarts across (0 or negative: GOMAXPROCS; 1: serial, no
	// goroutines spawned). The result is bit-identical at any worker
	// count; only wall-clock time changes.
	Workers int
	// Trace, when non-nil, is the search's phase span: restart counts,
	// cost evaluations and the best-cost trajectory report on it. The
	// search does not End it; the caller owns it.
	Trace *telemetry.Span
	// Cancel, when non-nil, is polled between greedy restarts (on every
	// worker) and every few thousand exhaustive-search leaves; returning
	// true stops the search early. The best permutation found so far is
	// returned — remapping never invalidates an allocation, so an
	// interrupted search still yields a usable result. At least one
	// restart always completes.
	Cancel func() bool
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result is the outcome of a remapping search.
type Result struct {
	// Perm maps old register number -> new register number.
	Perm []int
	// Cost is the adjacency-graph cost of Perm.
	Cost float64
	// Evaluated measures search effort. Exhaustive counts the
	// permutations it scored. Greedy counts, per descent step, the swap
	// deltas that the step's committed swap could have changed (every
	// pair on a restart's first step), plus one re-score per restart; it
	// does not count the arithmetic done, since each step probes every
	// pair. With several workers it can exceed the serial count —
	// workers may run restarts beyond the first zero-cost one before
	// learning of it — but Perm and Cost never depend on the worker
	// count.
	Evaluated int
}

// Identity returns the identity permutation over n registers.
func Identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// exhaustiveCancelStride is how many leaf permutations the exhaustive
// search scores between Options.Cancel polls.
const exhaustiveCancelStride = 4096

// Exhaustive tries every permutation of the non-pinned registers and
// returns the best. Complexity O(RegN^2 * RegN!) as derived in §5;
// callers should keep RegN small (<= ~9). Options.Cancel is polled
// every few thousand permutations, so a cancelled context stops the
// enumeration early with the best permutation found so far.
func Exhaustive(c *adjacency.CSR, opts Options) *Result {
	free := freeRegs(opts)
	perm := Identity(opts.RegN)
	best := &Result{Perm: append([]int(nil), perm...), Cost: c.PermCost(perm, opts.RegN, opts.DiffN), Evaluated: 1}

	// Heap's algorithm over the values assigned to free positions.
	vals := make([]int, len(free))
	for i, f := range free {
		vals[i] = perm[f]
	}
	leaves := 0
	stopped := false
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			for i, f := range free {
				perm[f] = vals[i]
			}
			cost := c.PermCost(perm, opts.RegN, opts.DiffN)
			best.Evaluated++
			if cost < best.Cost {
				best.Cost = cost
				copy(best.Perm, perm)
			}
			leaves++
			if leaves%exhaustiveCancelStride == 0 && opts.Cancel != nil && opts.Cancel() {
				stopped = true
			}
			return
		}
		for i := 0; i < k && !stopped; i++ {
			rec(k - 1)
			if k%2 == 0 {
				vals[i], vals[k-1] = vals[k-1], vals[i]
			} else {
				vals[0], vals[k-1] = vals[k-1], vals[0]
			}
		}
	}
	if len(vals) > 0 {
		rec(len(vals))
	}
	if opts.Trace != nil {
		opts.Trace.SetAttr("method", "exhaustive")
		opts.Trace.SetAttr("best_cost", best.Cost)
		if stopped {
			opts.Trace.SetAttr("cancelled", true)
		}
		opts.Trace.Add("evaluated", int64(best.Evaluated))
	}
	return best
}

// Greedy runs the paper's polynomial heuristic (Figure 7): from each
// initial register vector, repeatedly apply the pairwise swap with the
// largest cost reduction until a local minimum, keeping the best
// solution over all restarts. The first restart always begins from the
// identity vector (the allocator's own numbering).
//
// Restarts are independent: restart r shuffles with an RNG seeded by
// mixing Options.Seed with r, so they can run on Options.Workers
// goroutines with a deterministic outcome (see Options.Workers). A
// zero-cost restart stops the search: par.For hands restarts out in
// ascending order, so every lower restart index has already been
// handed out and runs.
func Greedy(c *adjacency.CSR, opts Options) *Result {
	restarts := opts.Restarts
	if restarts == 0 {
		restarts = 1000
	}
	workers := opts.workers()
	if workers > restarts {
		workers = restarts
	}
	e := newEngine(c, opts)

	bests := make([]workerBest, workers)
	for w := range bests {
		bests[w].index = -1
	}
	cancel := opts.Cancel
	traced := opts.Trace != nil
	par.For(workers, restarts, func(w, r int) bool {
		// Restart 0 always completes, so a cancelled search still
		// returns a usable permutation.
		if r > 0 && cancel != nil && cancel() {
			return false
		}
		b := &bests[w]
		if b.s == nil {
			b.s = e.newScratch()
		}
		s := b.s
		cost := e.descend(s, r)
		if traced {
			b.note(r, cost)
		}
		b.evaluated += s.evaluated
		s.evaluated = 0
		b.performed++
		if b.index < 0 || cost < b.cost {
			b.cost = cost
			b.index = r
			b.perm = append(b.perm[:0], s.perm...)
		}
		return cost != 0
	})

	// Reduce: lowest cost wins, ties broken by lowest restart index —
	// exactly the order a serial run encounters them in.
	best := &Result{Cost: -1}
	bestIndex := -1
	performed := 0
	for w := range bests {
		b := &bests[w]
		best.Evaluated += b.evaluated
		performed += b.performed
		if b.index < 0 {
			continue
		}
		if bestIndex < 0 || b.cost < best.Cost || (b.cost == best.Cost && b.index < bestIndex) {
			best.Cost = b.cost
			best.Perm = b.perm
			bestIndex = b.index
		}
	}

	if traced {
		opts.Trace.SetAttr("method", "greedy")
		opts.Trace.SetAttr("best_cost", best.Cost)
		opts.Trace.SetAttr("trajectory", trajectory(bests))
		opts.Trace.SetAttr("workers", workers)
		opts.Trace.Add("restarts", int64(performed))
		opts.Trace.Add("evaluated", int64(best.Evaluated))
	}
	return best
}

// trajectory is the improving-restart trajectory: in restart order,
// the first restart performed and every later one whose cost is below
// the last recorded, so it reads the same at any worker count. It is
// rebuilt from the workers' improving lists, which hold every restart
// it can contain: a restart below every cost performed before it is
// below every cost its own worker performed before it.
func trajectory(bests []workerBest) []float64 {
	var kept []restartCost
	for w := range bests {
		kept = append(kept, bests[w].improving...)
	}
	slices.SortFunc(kept, func(x, y restartCost) int { return cmp.Compare(x.index, y.index) })
	var traj []float64
	for i, rc := range kept {
		if i == 0 || rc.cost < traj[len(traj)-1] {
			traj = append(traj, rc.cost)
		}
	}
	return traj
}

// workerBest accumulates one worker's share of the search and holds
// its descent scratch. A worker receives restart indices in increasing
// order, so keeping the first strictly-better cost reproduces serial
// tie-breaking within a worker; the cross-worker tie-break happens in
// the final reduce.
type workerBest struct {
	s         *scratch
	cost      float64
	index     int
	perm      []int
	evaluated int
	performed int
	// improving lists, when the search is traced, the worker's restarts
	// whose cost is not at or above the last one listed.
	improving []restartCost
}

type restartCost struct {
	index int
	cost  float64
}

// note appends restart r to the worker's improving list unless its
// cost is at or above the last one listed. A NaN cost is listed, and
// so is everything after it: a worker whose first restart costs NaN
// must still list the later restarts that may set the trajectory.
func (b *workerBest) note(r int, cost float64) {
	if n := len(b.improving); n == 0 || !(cost >= b.improving[n-1].cost) {
		b.improving = append(b.improving, restartCost{index: r, cost: cost})
	}
}

// engine is the read-only shared state of one greedy search: the
// fixed-point form of every edge the descent can see, built once.
type engine struct {
	csr   *adjacency.CSR
	regN  int
	diffN int
	seed  int64
	free  []int // non-pinned registers, ascending
	posOf []int // register -> index in free, or -1 if pinned
	// inc[incOff[pp]:incOff[pp+1]] are the edges between free[pp] and
	// another register, in CSR incidence order: one flat array for all
	// free positions.
	incOff []int32
	inc    []incEdge
	// width is the length of the cyclic register window an edge's
	// weight is spread over in a cost-matrix row: the shorter of the
	// satisfied window (DiffN wide) and the violated one (RegN-DiffN
	// wide). fromOff and toOff, in [0, RegN), are where the window
	// starts relative to the neighbor's register, for a row owner on
	// the edge's from and to side. See incEdge.
	width, fromOff, toOff int
	// pairW[ii*m+jj] is the scaled total weight of edges (both
	// directions) between free[ii] and free[jj]: the direct-edge
	// correction term of a swap-delta probe.
	pairW []int64
	// swapViol[RegN+rq-rp] is violInd(rp, rq) + violInd(rq, rp): how
	// many directions of a direct edge between registers rp and rq the
	// swapped assignment violates. It depends only on rq-rp.
	swapViol []int64
	// wrap[k] is k mod RegN, for k up to a window's end.
	wrap []int
}

// incEdge is one edge of a free register's flat incidence. Row pp of
// the cost matrix is the sum, over free[pp]'s edges, of each edge's
// entry dw added over a cyclic window of the row owner's candidate
// registers: the registers where the edge is satisfied (dw = -w) when
// that window is the shorter, else those where it is violated
// (dw = +w). The two forms differ from the true violated weight by a
// per-row constant, which every probe cancels (probes take differences
// within one row), so the engine picks the shorter.
type incEdge struct {
	dw int64 // the window entry: ±the scaled edge weight
	// ref is the neighbor's free position, or ^register when it is
	// pinned (a pinned register keeps its own number).
	ref int32
	// fromSide: the row owner is the edge's from endpoint.
	fromSide bool
}

// offsets returns the window starts of the edge, relative to the other
// endpoint's register, in the owner's row and in the neighbor's row.
func (e *engine) offsets(ie incEdge) (own, nbr int) {
	if ie.fromSide {
		return e.fromOff, e.toOff
	}
	return e.toOff, e.fromOff
}

func newEngine(c *adjacency.CSR, opts Options) *engine {
	e := &engine{
		csr:   c,
		regN:  opts.RegN,
		diffN: opts.DiffN,
		seed:  opts.Seed,
		free:  freeRegs(opts),
	}
	e.posOf = make([]int, opts.RegN)
	for i := range e.posOf {
		e.posOf[i] = -1
	}
	for p, f := range e.free {
		e.posOf[f] = p
	}
	m := len(e.free)
	regN := e.regN
	diffN := max(0, min(e.diffN, regN))

	// Window offsets relative to the neighbor's register x. An owner on
	// the from side is satisfied on (x-DiffN, x] and violated on
	// [x+1, x+RegN-DiffN]; on the to side satisfied on [x, x+DiffN) and
	// violated on [x+DiffN, x+RegN). (With an empty window the offsets
	// are never read.)
	sign := int64(1)
	e.width, e.fromOff, e.toOff = regN-diffN, 1, diffN
	if diffN <= regN-diffN {
		e.width, e.fromOff, e.toOff, sign = diffN, regN-diffN+1, 0, -1
		if e.fromOff >= regN {
			e.fromOff -= regN
		}
	}

	// Lay out the flat incidence and find the heaviest single weight.
	e.incOff = make([]int32, m+1)
	maxAbs := 0.0
	for pp := range e.free {
		n := 0
		e.edges(pp, func(_ int, _ bool, w float64) {
			n++
			maxAbs = max(maxAbs, math.Abs(w))
		})
		e.incOff[pp+1] = e.incOff[pp] + int32(n)
	}
	// The fixed-point scale: see maxIncidentLog2.
	shift := 0
	if maxAbs > 0 {
		_, exp := math.Frexp(maxAbs) // maxAbs < 2^exp
		heaviest := 0.0
		for pp := range e.free {
			sum := 0.0
			e.edges(pp, func(_ int, _ bool, w float64) { sum += math.Ldexp(math.Abs(w), -exp) })
			heaviest = max(heaviest, sum)
		}
		_, hexp := math.Frexp(heaviest) // heaviest < 2^hexp
		shift = maxIncidentLog2 - exp - hexp
	}
	e.wrap = make([]int, 2*regN+e.width)
	for k := range e.wrap {
		e.wrap[k] = k % regN
	}
	e.inc = make([]incEdge, e.incOff[m])
	e.pairW = make([]int64, m*m)
	e.swapViol = make([]int64, 2*regN)
	for d := 1 - regN; d < regN; d++ {
		rp, rq := max(0, -d), max(0, d)
		e.swapViol[regN+d] = int64(violInd(rp, rq, regN, e.diffN) + violInd(rq, rp, regN, e.diffN))
	}
	k := 0
	for pp := range e.free {
		e.edges(pp, func(u int, fromSide bool, w float64) {
			ws := int64(math.Round(math.Ldexp(w, shift)))
			ref := ^u
			if pos := e.posOf[u]; pos >= 0 {
				ref = pos
				e.pairW[pp*m+pos] += ws
			}
			e.inc[k] = incEdge{dw: sign * ws, ref: int32(ref), fromSide: fromSide}
			k++
		})
	}
	return e
}

// maxIncidentLog2 bounds the fixed-point scale. Each search scales all
// its edge weights by one power of two 2^shift, the largest that keeps
// the heaviest total incident weight of any free register below
// 2^maxIncidentLog2. A cost-matrix entry is bounded by its row's
// incident weight, and a swap delta by six times the larger of two
// rows' (two entry differences plus the direct-edge term), so no entry,
// probe or intermediate sum can reach 2^63. Multiplying by a power of
// two is exact, so a weight with no bits below 2^-shift converts
// exactly; one that has them is rounded to the nearest integer.
const maxIncidentLog2 = 58

// edges calls fn for every CSR edge between free[pp] and another
// register (< RegN), in incidence order, with the neighbor, whether
// free[pp] is the edge's from endpoint, and the weight under the
// non-finite rule of finiteWeight. Zero weights are included: the
// Evaluated count (which positions a swap touches) follows graph
// adjacency, not weight.
func (e *engine) edges(pp int, fn func(u int, fromSide bool, w float64)) {
	v := e.free[pp]
	if v >= e.csr.N {
		return
	}
	from, to, w := e.csr.Inc(v)
	for k := range w {
		f, t := int(from[k]), int(to[k])
		u := f
		if f == v {
			u = t
		}
		if u < e.regN {
			fn(u, f == v, finiteWeight(w[k]))
		}
	}
}

// finiteWeight is the rule for weights that are not finite at any
// scale: ±Inf saturates to ±math.MaxFloat64 and NaN counts as 0. It
// applies only to the descent's fixed-point weights; the float64
// re-score behind Result.Cost sees the original weights, so Cost is
// +Inf (or NaN) when such an edge stays violated.
func finiteWeight(w float64) float64 {
	switch {
	case math.IsNaN(w):
		return 0
	case math.IsInf(w, 1):
		return math.MaxFloat64
	case math.IsInf(w, -1):
		return -math.MaxFloat64
	}
	return w
}

// scratch is one worker's reusable descent state.
type scratch struct {
	perm []int
	// reg[pp] caches perm[free[pp]], the register each free position
	// holds, so probes index the cost matrix without the indirection.
	reg []int
	// a[pp*regN+r] is the register-cost matrix the O(1) probes read:
	// up to a per-row constant, the scaled violated incident weight of
	// free[pp] if it were renumbered to r, all other registers as in
	// perm. Maintained incrementally across swaps.
	a []int64
	// diff is buildCostMatrix's difference array for one row: RegN
	// entries plus a window's overhang past the row's end.
	diff []int64
	// stamp[pp] == gen marks the free positions the last committed swap
	// touched (see touched).
	stamp     []int
	gen       int
	evaluated int
}

func (e *engine) newScratch() *scratch {
	m := len(e.free)
	return &scratch{
		perm:  make([]int, e.regN),
		reg:   make([]int, m),
		a:     make([]int64, m*e.regN),
		diff:  make([]int64, e.regN+e.width),
		stamp: make([]int, m),
	}
}

// restartSeed splits Options.Seed into an independent stream per
// restart index (splitmix64 finalizer over seed ^ golden-ratio
// increments), so restarts are order- and worker-independent.
func restartSeed(seed int64, r int) int64 {
	z := uint64(seed) ^ (uint64(r) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// shuffleRNG is the tiny splitmix64 stream behind each restart's
// Fisher–Yates shuffle. math/rand's source pays a ~600-word seeding
// table per New, which profiled at ~15% of the whole search; one
// restart needs only len(free) draws.
type shuffleRNG uint64

func (s *shuffleRNG) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is ~n/2^64 —
// irrelevant for shuffling, and the draw sequence is part of the
// deterministic search contract either way.
func (s *shuffleRNG) intn(n int) int { return int(s.next() % uint64(n)) }

// shuffleFree permutes the values at perm's free positions for restart
// r (restart 0 keeps the identity).
func (e *engine) shuffleFree(perm []int, r int) {
	if r == 0 {
		return
	}
	rng := shuffleRNG(restartSeed(e.seed, r))
	free := e.free
	for i := len(free) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		perm[free[i]], perm[free[j]] = perm[free[j]], perm[free[i]]
	}
}

// descend runs one restart: shuffle (restart 0 keeps the identity),
// then steepest descent on pairwise swaps. Each step probes every free
// pair in O(1) against the register-cost matrix (see bestSwap) and
// commits the best swap, then repairs the matrix rows the swap
// changed. Every committed swap strictly lowers the integer cost,
// which is bounded below, so the descent terminates. Returns the
// float64 cost of s.perm, re-scored from the original weights.
//
// s.evaluated grows by the pairs whose delta a step cannot take as
// known: all of them on the first step, and after a swap of (i, j)
// those with an endpoint in {i, j} ∪ N(i) ∪ N(j) — the only pairs whose
// delta the swap can have changed, since a delta depends on the
// registers of its two positions and their graph neighbors.
func (e *engine) descend(s *scratch, r int) float64 {
	perm := s.perm
	for i := range perm {
		perm[i] = i
	}
	e.shuffleFree(perm, r)
	for pp, f := range e.free {
		s.reg[pp] = perm[f]
	}
	e.buildCostMatrix(s)
	m := len(e.free)
	pairs := m * (m - 1) / 2
	s.evaluated += pairs
	for {
		bi, bj := e.bestSwap(s)
		if bi < 0 {
			break // local minimum
		}
		ri, rj := s.reg[bi], s.reg[bj]
		s.reg[bi], s.reg[bj] = rj, ri
		perm[e.free[bi]], perm[e.free[bj]] = rj, ri
		e.updateCostMatrix(s, bi, ri, rj)
		e.updateCostMatrix(s, bj, rj, ri)
		rest := m - e.touched(s, bi, bj)
		s.evaluated += pairs - rest*(rest-1)/2
	}
	// Score the local minimum from the original float64 weights, so
	// Result.Cost never depends on the fixed-point scale.
	s.evaluated++
	return e.csr.PermCost(perm, e.regN, e.diffN)
}

// bestSwap probes every free pair and returns the first pair, in
// (ii, jj) order, with the most negative delta, or (-1, -1) at a local
// minimum.
//
// Each probe is O(1): renumbering p from rp to rq moves p's incident
// cost from a[p][rp] to a[p][rq] (and symmetrically for q), which
// misstates only the edges directly between p and q — those see both
// endpoints change at once. Since diff(r, r) = 0 is always satisfied,
// the correction reduces to the pair's total edge weight times the
// violation indicators of the swapped assignment in both directions
// (swapViol). A probe equals CSR.SwapDelta on the scaled weights,
// exactly.
func (e *engine) bestSwap(s *scratch) (bi, bj int) {
	m, regN := len(e.free), e.regN
	reg, a := s.reg[:m], s.a
	bi, bj = -1, -1
	var best int64
	for ii := 0; ii < m; ii++ {
		rp := reg[ii]
		ap := a[ii*regN : ii*regN+regN]
		own := ap[rp]
		pairW := e.pairW[ii*m : ii*m+m]
		// viol[rq] = swapViol[RegN+rq-rp]
		viol := e.swapViol[regN-rp : 2*regN-rp]
		for jj := ii + 1; jj < m; jj++ {
			rq := reg[jj]
			q := jj * regN
			d := ap[rq] - own + a[q+rp] - a[q+rq] + pairW[jj]*viol[rq]
			if d < best {
				best, bi, bj = d, ii, jj
			}
		}
	}
	return bi, bj
}

// violInd is 1 if the ordered register pair (rf, rt) violates
// condition (3), else 0.
func violInd(rf, rt, regN, diffN int) int {
	d := rt - rf
	if d < 0 {
		d += regN
	}
	if d >= diffN {
		return 1
	}
	return 0
}

// buildCostMatrix fills s.a for the registers in s.reg. Every edge of
// row pp adds its window entry over its window (see incEdge); the row
// collects them in a difference array, then takes one prefix sum and
// folds the overhang of windows that wrap past the last register back
// onto the first ones. O(deg + RegN) per row.
func (e *engine) buildCostMatrix(s *scratch) {
	regN, width := e.regN, e.width
	diff := s.diff
	for pp := range e.free {
		clear(diff)
		for _, ie := range e.inc[e.incOff[pp]:e.incOff[pp+1]] {
			x := ^int(ie.ref)
			if ie.ref >= 0 {
				x = s.reg[ie.ref]
			}
			own, _ := e.offsets(ie)
			start := e.wrap[x+own]
			diff[start] += ie.dw
			diff[start+width] -= ie.dw
		}
		row := s.a[pp*regN : pp*regN+regN]
		var sum int64
		for r := range row {
			sum += diff[r]
			row[r] = sum
		}
		for r, d := range diff[regN:] {
			sum += d
			row[r] += sum
		}
	}
}

// updateCostMatrix repairs s.a after free[pc] was renumbered from xold
// to xnew: in the row of every free neighbor, the edge's window moves
// from xold to xnew. O(deg · min(DiffN, RegN-DiffN)).
func (e *engine) updateCostMatrix(s *scratch, pc, xold, xnew int) {
	regN, width := e.regN, e.width
	for _, ie := range e.inc[e.incOff[pc]:e.incOff[pc+1]] {
		if ie.ref < 0 {
			continue
		}
		row := s.a[int(ie.ref)*regN : int(ie.ref)*regN+regN]
		_, off := e.offsets(ie)
		// wrap[k] = k mod RegN, so the windows need no wrap test.
		from := e.wrap[xold+off : xold+off+width]
		to := e.wrap[xnew+off : xnew+off+width]
		to = to[:len(from)]
		for k, r := range from {
			row[r] -= ie.dw
			row[to[k]] += ie.dw
		}
	}
}

// touched returns |{pi, pj} ∪ N(pi) ∪ N(pj)|, counted over free
// positions: the positions whose pairs a swap of free[pi] and free[pj]
// can have changed.
func (e *engine) touched(s *scratch, pi, pj int) int {
	s.gen++
	gen := s.gen
	s.stamp[pi], s.stamp[pj] = gen, gen
	k := 2
	for _, pp := range [2]int{pi, pj} {
		for _, ie := range e.inc[e.incOff[pp]:e.incOff[pp+1]] {
			if ie.ref >= 0 && s.stamp[ie.ref] != gen {
				s.stamp[ie.ref] = gen
				k++
			}
		}
	}
	return k
}

// Auto picks exhaustive search for small register files and the greedy
// multi-start heuristic otherwise, mirroring the paper's guidance that
// exhaustive search "is actually tractable for small RegN values".
func Auto(c *adjacency.CSR, opts Options) *Result {
	if len(freeRegs(opts)) <= 7 {
		return Exhaustive(c, opts)
	}
	return Greedy(c, opts)
}

func freeRegs(opts Options) []int {
	free := make([]int, 0, opts.RegN)
	for r := 0; r < opts.RegN; r++ {
		if !opts.Pinned[r] {
			free = append(free, r)
		}
	}
	return free
}
