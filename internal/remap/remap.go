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
// register vectors (the paper uses 1000).
//
// The greedy multi-start search is parallel and deterministic: every
// restart derives its own RNG stream from (Seed, restart index), so
// restarts are independent work items sharded across Options.Workers
// goroutines, and the best permutation — ties broken by lowest restart
// index — is bit-identical at any worker count. Cost evaluation runs
// on the frozen CSR form of the adjacency graph (adjacency.Freeze),
// and each descent step re-probes only swap pairs whose delta a
// committed swap could have changed (pair invalidation). Each re-probe
// is O(1): the engine maintains a register-cost matrix a[p][r] — the
// violated weight of p's incident edges if p held register r — from
// which a swap delta is four lookups plus a direct-edge correction, so
// a descent step costs O(deg·DiffN + free) amortized instead of a full
// O(free²·deg) rescan.
package remap

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"diffra/internal/adjacency"
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
	// Evaluated counts cost evaluations performed (search effort). With
	// several workers it can exceed the serial count — workers may probe
	// restarts beyond the first zero-cost one before learning of it —
	// but Perm and Cost never depend on the worker count.
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
func Exhaustive(g *adjacency.Graph, opts Options) *Result {
	return ExhaustiveCSR(g.Freeze(), opts)
}

// ExhaustiveCSR is Exhaustive on an already-frozen graph.
func ExhaustiveCSR(c *adjacency.CSR, opts Options) *Result {
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
// zero-cost restart stops the search — every worker quits as soon as
// its next restart index exceeds the lowest zero-cost index found.
func Greedy(g *adjacency.Graph, opts Options) *Result {
	return GreedyCSR(g.Freeze(), opts)
}

// GreedyCSR is Greedy on an already-frozen graph.
func GreedyCSR(c *adjacency.CSR, opts Options) *Result {
	restarts := opts.Restarts
	if restarts == 0 {
		restarts = 1000
	}
	workers := opts.workers()
	if workers > restarts {
		workers = restarts
	}
	e := newEngine(c, opts)

	var (
		next   atomic.Int64 // next restart index to claim
		stopAt atomic.Int64 // lowest zero-cost restart index found
		costs  = make([]float64, restarts)
		done   = make([]bool, restarts)
		bests  = make([]workerBest, workers)
	)
	stopAt.Store(math.MaxInt64)

	run := func(b *workerBest) {
		b.index = -1
		s := e.newScratch()
		for {
			r := int(next.Add(1)) - 1
			if r >= restarts || int64(r) > stopAt.Load() {
				return
			}
			// Restart 0 always completes, so a cancelled search still
			// returns a usable permutation.
			if r > 0 && opts.Cancel != nil && opts.Cancel() {
				return
			}
			cost := e.descend(s, r)
			costs[r] = cost
			done[r] = true
			b.evaluated += s.evaluated
			s.evaluated = 0
			b.performed++
			if b.index < 0 || cost < b.cost {
				b.cost = cost
				b.index = r
				b.perm = append(b.perm[:0], s.perm...)
			}
			if cost == 0 {
				for {
					cur := stopAt.Load()
					if int64(r) >= cur || stopAt.CompareAndSwap(cur, int64(r)) {
						break
					}
				}
			}
		}
	}

	if workers == 1 {
		run(&bests[0])
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(b *workerBest) {
				defer wg.Done()
				run(b)
			}(&bests[w])
		}
		wg.Wait()
	}

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

	if opts.Trace != nil {
		// The improving-restart trajectory, reconstructed in restart
		// order so it reads the same at any worker count.
		var trajectory []float64
		seen := false
		lowest := 0.0
		for r := 0; r < restarts; r++ {
			if !done[r] {
				continue
			}
			if !seen || costs[r] < lowest {
				seen = true
				lowest = costs[r]
				trajectory = append(trajectory, lowest)
			}
		}
		opts.Trace.SetAttr("method", "greedy")
		opts.Trace.SetAttr("best_cost", best.Cost)
		opts.Trace.SetAttr("trajectory", trajectory)
		opts.Trace.SetAttr("workers", workers)
		opts.Trace.Add("restarts", int64(performed))
		opts.Trace.Add("evaluated", int64(best.Evaluated))
	}
	return best
}

// workerBest accumulates one worker's share of the search. Workers
// claim monotonically increasing restart indices, so keeping the first
// strictly-better cost reproduces serial tie-breaking within a worker;
// the cross-worker tie-break happens in the final reduce.
type workerBest struct {
	cost      float64
	index     int
	perm      []int
	evaluated int
	performed int
}

// engine is the read-only shared state of one greedy search.
type engine struct {
	csr   *adjacency.CSR
	regN  int
	diffN int
	seed  int64
	free  []int // non-pinned registers, ascending
	posOf []int // register -> index in free, or -1 if pinned
	// pairW[ii*m+jj] is the total weight of edges (both directions)
	// between free[ii] and free[jj]: the direct-edge correction term of
	// a swap-delta probe. Static for the whole search.
	pairW []float64
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
	e.pairW = make([]float64, m*m)
	for pp, f := range e.free {
		if f >= c.N {
			continue
		}
		to, w := c.Row(f)
		for k := range to {
			t := int(to[k])
			if t >= e.regN {
				continue
			}
			if qq := e.posOf[t]; qq >= 0 {
				e.pairW[pp*m+qq] += w[k]
				e.pairW[qq*m+pp] += w[k]
			}
		}
	}
	return e
}

// scratch is one worker's reusable descent state.
type scratch struct {
	perm  []int
	delta []float64 // delta[ii*m+jj], ii < jj: cost change of swapping free[ii], free[jj]
	dirty []bool    // free positions whose cached deltas are stale
	// a[pp*regN+r] is the violated incident weight of register free[pp]
	// if it were renumbered to r, all other registers as in perm: the
	// register-cost matrix the O(1) probes read. Maintained
	// incrementally across swaps.
	a         []float64
	evaluated int
}

func (e *engine) newScratch() *scratch {
	m := len(e.free)
	return &scratch{
		perm:  make([]int, e.regN),
		delta: make([]float64, m*m),
		dirty: make([]bool, m),
		a:     make([]float64, m*e.regN),
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

// maxDescentSteps bounds one restart's descent. Unreachable in
// practice — every step strictly lowers the (finite-valued) cost — it
// only guards against cycling if float drift in the incremental
// register-cost matrix ever makes a zero-gain swap look negative.
const maxDescentSteps = 1 << 20

// descend runs one restart: shuffle (restart 0 keeps the identity),
// then steepest descent on pairwise swaps. The pairwise deltas are
// cached; after committing a swap of registers (i, j), only pairs
// whose delta could have changed — those with a position in
// {i, j} ∪ neighbors(i) ∪ neighbors(j) — are re-probed, each probe in
// O(1) against the register-cost matrix (see probe). Returns the exact
// final cost of s.perm.
func (e *engine) descend(s *scratch, r int) float64 {
	perm := s.perm
	for i := range perm {
		perm[i] = i
	}
	e.shuffleFree(perm, r)
	e.buildCostMatrix(s, perm)

	free := e.free
	m := len(free)
	for ii := 0; ii < m; ii++ {
		for jj := ii + 1; jj < m; jj++ {
			s.delta[ii*m+jj] = e.probe(s, perm, ii, jj)
			s.evaluated++
		}
	}
	for step := 0; step < maxDescentSteps; step++ {
		bi, bj := -1, -1
		bestDelta := 0.0
		for ii := 0; ii < m; ii++ {
			row := s.delta[ii*m:]
			for jj := ii + 1; jj < m; jj++ {
				if d := row[jj]; d < bestDelta {
					bestDelta, bi, bj = d, ii, jj
				}
			}
		}
		if bi < 0 {
			break // local minimum
		}
		i, j := free[bi], free[bj]
		pi, pj := perm[i], perm[j]
		perm[i], perm[j] = pj, pi
		e.updateCostMatrix(s, i, pi, pj)
		e.updateCostMatrix(s, j, pj, pi)

		// Invalidate: a cached delta(p, q) depends on the registers of
		// p, q and their graph neighbors, so it is stale iff p or q is
		// i, j, or adjacent to either. (Equivalently: rows of the
		// register-cost matrix change only for neighbors of i and j.)
		for p := range s.dirty {
			s.dirty[p] = false
		}
		s.dirty[bi] = true
		s.dirty[bj] = true
		e.markNeighbors(s, i)
		e.markNeighbors(s, j)
		for ii := 0; ii < m; ii++ {
			di := s.dirty[ii]
			for jj := ii + 1; jj < m; jj++ {
				if di || s.dirty[jj] {
					s.delta[ii*m+jj] = e.probe(s, perm, ii, jj)
					s.evaluated++
				}
			}
		}
	}
	// Score the local minimum exactly: per-edge deltas are exact in
	// principle, but a full re-sum keeps long descents drift-free.
	s.evaluated++
	return e.csr.PermCost(perm, e.regN, e.diffN)
}

// probe returns the cost change of swapping the registers of free[ii]
// and free[jj] in O(1): renumbering p from rp to rq moves p's incident
// cost from a[p][rp] to a[p][rq] (and symmetrically for q), which
// misstates only the edges directly between p and q — those see both
// endpoints change at once. Since diff(r, r) = 0 is always satisfied,
// the correction reduces to the pair's total edge weight times the
// violation indicators of the swapped assignment in both directions.
// Equal to CSR.SwapDelta up to float summation order (exactly equal
// when edge weights are exactly representable sums).
func (e *engine) probe(s *scratch, perm []int, ii, jj int) float64 {
	regN := e.regN
	p, q := e.free[ii], e.free[jj]
	rp, rq := perm[p], perm[q]
	ap := s.a[ii*regN:]
	aq := s.a[jj*regN:]
	d := ap[rq] - ap[rp] + aq[rp] - aq[rq]
	if wpq := e.pairW[ii*len(e.free)+jj]; wpq != 0 {
		d += wpq * float64(violInd(rp, rq, regN, e.diffN)+violInd(rq, rp, regN, e.diffN))
	}
	return d
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

// buildCostMatrix fills s.a for perm: row pp holds, for every
// candidate register r, the violated weight of free[pp]'s incident
// edges if free[pp] were numbered r. Each edge is violated for all r
// except a cyclic window of DiffN registers, so a row is built as
// (total incident weight) minus the edge windows.
func (e *engine) buildCostMatrix(s *scratch, perm []int) {
	regN, diffN := e.regN, e.diffN
	if diffN > regN {
		diffN = regN
	}
	for pp, v := range e.free {
		row := s.a[pp*regN : (pp+1)*regN]
		for r := range row {
			row[r] = 0
		}
		if v >= e.csr.N {
			continue
		}
		total := 0.0
		from, to, w := e.csr.Inc(v)
		for k := range w {
			f, t := int(from[k]), int(to[k])
			u := f
			if f == v {
				u = t
			}
			if u >= regN {
				continue
			}
			total += w[k]
			addWindow(row, e.windowStart(f == v, perm[u]), diffN, -w[k])
		}
		for r := range row {
			row[r] += total
		}
	}
}

// updateCostMatrix repairs s.a after register c was renumbered from
// xold to xnew: for every neighbor u of c, the edge's satisfied window
// in u's row moves — add the weight back over the old window, remove
// it over the new one. O(deg(c) · DiffN).
func (e *engine) updateCostMatrix(s *scratch, c, xold, xnew int) {
	if c >= e.csr.N {
		return
	}
	regN, diffN := e.regN, e.diffN
	if diffN > regN {
		diffN = regN
	}
	from, to, w := e.csr.Inc(c)
	for k := range w {
		f, t := int(from[k]), int(to[k])
		u := f
		if f == c {
			u = t
		}
		if u >= regN {
			continue
		}
		pu := e.posOf[u]
		if pu < 0 {
			continue
		}
		row := s.a[pu*regN : (pu+1)*regN]
		// Window position as seen from u's row: u is the edge's "from"
		// endpoint iff c is its "to" endpoint.
		fromSide := u == f
		addWindow(row, e.windowStart(fromSide, xold), diffN, w[k])
		addWindow(row, e.windowStart(fromSide, xnew), diffN, -w[k])
	}
}

// windowStart returns the first register of the cyclic DiffN-wide
// window where an edge between the row's register r and a neighbor
// numbered x is satisfied: r from-side means diff(r, x) < DiffN, i.e.
// r in (x-DiffN, x]; r to-side means diff(x, r) < DiffN, i.e. r in
// [x, x+DiffN).
func (e *engine) windowStart(fromSide bool, x int) int {
	if !fromSide {
		return x
	}
	start := x - e.diffN + 1
	for start < 0 {
		start += e.regN
	}
	return start
}

// addWindow adds w to diffN consecutive entries of row starting at
// start, wrapping cyclically.
func addWindow(row []float64, start, diffN int, w float64) {
	for k := 0; k < diffN; k++ {
		row[start] += w
		start++
		if start == len(row) {
			start = 0
		}
	}
}

// markNeighbors sets the dirty bit of every free position adjacent to
// register v in the graph.
func (e *engine) markNeighbors(s *scratch, v int) {
	if v >= e.csr.N {
		return
	}
	from, to, w := e.csr.Inc(v)
	for k := range w {
		other := int(from[k])
		if other == v {
			other = int(to[k])
		}
		if other < len(e.posOf) {
			if p := e.posOf[other]; p >= 0 {
				s.dirty[p] = true
			}
		}
	}
}

// Auto picks exhaustive search for small register files and the greedy
// multi-start heuristic otherwise, mirroring the paper's guidance that
// exhaustive search "is actually tractable for small RegN values".
func Auto(g *adjacency.Graph, opts Options) *Result {
	return AutoCSR(g.Freeze(), opts)
}

// AutoCSR is Auto on an already-frozen graph.
func AutoCSR(c *adjacency.CSR, opts Options) *Result {
	if len(freeRegs(opts)) <= 7 {
		return ExhaustiveCSR(c, opts)
	}
	return GreedyCSR(c, opts)
}

func freeRegs(opts Options) []int {
	var free []int
	for r := 0; r < opts.RegN; r++ {
		if !opts.Pinned[r] {
			free = append(free, r)
		}
	}
	return free
}
