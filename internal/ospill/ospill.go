// Package ospill implements the optimal spilling register allocator of
// Appel & George (PLDI 2001), the foundation of the paper's third
// scheme (§7). Spill decisions are made first and globally: a 0-1
// integer program selects the cheapest (frequency-weighted) set of
// live ranges to spill such that at every program point at most K live
// ranges remain in registers. The paper's authors solved the program
// with CPLEX; here the stdlib branch-and-bound solver in internal/ilp
// plays that role (see DESIGN.md's substitution table).
//
// The second phase — coalescing and coloring the now low-pressure
// interference graph — is delegated to the iterated register
// coalescing allocator, whose select stage remains pluggable so that
// differential select (§6) and differential coalesce (§7) can reuse
// this allocator's spilling phase.
package ospill

import (
	"errors"
	"sort"
	"strconv"
	"strings"

	"diffra/internal/bitset"
	"diffra/internal/ilp"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/liveness"
	"diffra/internal/regalloc"
	"diffra/internal/telemetry"
)

// Options configures the allocator.
type Options struct {
	// K is the number of machine registers.
	K int
	// Picker / PickerFactory configure the coloring phase's select
	// stage (see irc.Options).
	Picker        irc.ColorPicker
	PickerFactory irc.PickerFactory
	// MaxNodes caps the ILP search per independently-solved work item
	// (0: solver default).
	MaxNodes int
	// Workers is the goroutine count for the ILP solver's
	// deterministic parallel search (0 or 1: serial). The spill set is
	// bit-identical at any worker count.
	Workers int
	// DisableLoopSpills turns off loop-granularity spill placement
	// (store once on loop entry, reload on exit, for ranges live
	// through a loop but unreferenced inside it) and reverts to
	// whole-range spilling only. Kept as an ablation knob.
	DisableLoopSpills bool
	// Trace, when non-nil, is the allocator's phase span: the ILP spill
	// decision and the coloring phase report under it as child spans.
	// Allocate does not End it; the caller owns it.
	Trace *telemetry.Span
	// Cancel, when non-nil, is polled by the ILP solver and between
	// phases; returning true aborts Allocate with ErrCancelled.
	Cancel func() bool
}

// ErrCancelled is returned by Allocate when Options.Cancel aborted the
// allocation (typically a caller's context deadline or cancellation).
var ErrCancelled = errors.New("ospill: allocation cancelled")

// Stats reports how the spill decision went.
type Stats struct {
	// ILPOptimal is true when the spill set is provably optimal for
	// the covering model.
	ILPOptimal bool
	// ILPSpilled counts live ranges spilled by the optimal phase.
	ILPSpilled int
	// ResidualSpilled counts live ranges the coloring phase still had
	// to spill (pressure <= K does not guarantee K-colorability).
	ResidualSpilled int
	// LoopSpilled counts (range, loop) pairs spilled at loop
	// granularity instead of everywhere.
	LoopSpilled int
	// Constraints is the number of over-pressure program points.
	Constraints int
	// ILPNodes is the number of branch-and-bound nodes the solver
	// explored (0 when no program was solved).
	ILPNodes int
	// ILPComponents is the number of connected components the solver's
	// preprocessing split the covering instance into.
	ILPComponents int
	// ILPReductions counts preprocessing simplifications (variables
	// fixed, constraints dropped) before the search.
	ILPReductions int
	// ILPPruned counts subtrees the solver cut by bound or branch
	// infeasibility.
	ILPPruned int
	// Cancelled is true when the solve was aborted by a Cancel hook.
	Cancelled bool
	// Steal reports the solver's epoch scheduler behaviour (epochs,
	// scheduled items, bound broadcasts).
	Steal ilp.StealStats
}

// SpillProblem builds the covering instance for f with K registers:
// one constraint per program point whose live set exceeds K, demanding
// that at least pressure-K of the ranges live there be spilled.
// Duplicate points collapse into one constraint.
func SpillProblem(f *ir.Func, k int) ilp.Problem {
	info := liveness.Compute(f)
	// Objective: the frequency-weighted Chaitin cost (the dynamic
	// spill overhead Appel & George minimize), with the static
	// occurrence count as a mild tiebreak so equally-hot candidates
	// prefer the one inserting fewer instructions.
	occ := liveness.Occurrences(f)
	weighted := liveness.SpillCosts(f)
	costs := make([]float64, len(occ))
	for v := range costs {
		costs[v] = weighted[v] + occ[v]/float64(len(occ)+1)
	}
	p := ilp.Problem{Costs: costs}
	seen := map[string]bool{}

	addPoint := func(live *bitset.Set) {
		n := live.Len()
		if n <= k {
			return
		}
		vars := live.Elems()
		key := conKey(vars, n-k)
		if seen[key] {
			return
		}
		seen[key] = true
		p.Constraints = append(p.Constraints, ilp.Constraint{Vars: vars, Need: n - k})
	}

	for _, b := range f.Blocks {
		addPoint(info.LiveIn[b.Index])
		info.LiveAcross(b, func(_ int, _ *ir.Instr, liveAfter *bitset.Set) {
			addPoint(liveAfter)
		})
	}
	return p
}

func conKey(vars []int, need int) string {
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(need))
	for _, v := range vars {
		sb.WriteByte(':')
		sb.WriteString(strconv.Itoa(v))
	}
	return sb.String()
}

// DecideSpills runs the optimal spill phase on f (without rewriting):
// it returns the chosen spill set and whether it is provably optimal.
func DecideSpills(f *ir.Func, k, maxNodes int) (map[ir.Reg]bool, Stats) {
	return DecideSpillsCancel(f, k, maxNodes, 0, nil)
}

// DecideSpillsCancel is DecideSpills with a solver worker count and a
// cancellation hook polled by the ILP solver; when the hook fires, the
// returned Stats report Cancelled and the spill set is the best
// incumbent found so far.
func DecideSpillsCancel(f *ir.Func, k, maxNodes, workers int, cancel func() bool) (map[ir.Reg]bool, Stats) {
	prob := SpillProblem(f, k)
	st := Stats{Constraints: len(prob.Constraints)}
	spills := make(map[ir.Reg]bool)
	if len(prob.Constraints) == 0 {
		st.ILPOptimal = true
		return spills, st
	}
	sol := ilp.Solve(prob, ilp.Options{MaxNodes: maxNodes, Workers: workers, Cancel: cancel, Stats: &st.Steal})
	st.ILPOptimal = sol.Optimal
	st.ILPNodes = sol.Nodes
	st.ILPComponents = sol.Components
	st.ILPReductions = sol.Reductions
	st.ILPPruned = sol.Pruned
	st.Cancelled = sol.Cancelled
	for v, on := range sol.X {
		if on {
			spills[ir.Reg(v)] = true
			st.ILPSpilled++
		}
	}
	return spills, st
}

// DecideSpillsExtended runs the optimal phase with loop-granularity
// candidates. It returns the full-range spill set and the chosen loop
// spills. When the extended program yields no feasible solution within
// budget, it falls back to the whole-range model (always feasible).
func DecideSpillsExtended(f *ir.Func, k, maxNodes int) (map[ir.Reg]bool, []LoopSpillCandidate, Stats) {
	return DecideSpillsExtendedCancel(f, k, maxNodes, 0, nil)
}

// DecideSpillsExtendedCancel is DecideSpillsExtended with a solver
// worker count and a cancellation hook polled by the ILP solver.
func DecideSpillsExtendedCancel(f *ir.Func, k, maxNodes, workers int, cancel func() bool) (map[ir.Reg]bool, []LoopSpillCandidate, Stats) {
	prob, cands := ExtendedSpillProblem(f, k)
	st := Stats{Constraints: len(prob.Constraints)}
	spills := make(map[ir.Reg]bool)
	if len(prob.Constraints) == 0 {
		st.ILPOptimal = true
		return spills, nil, st
	}
	sol := ilp.Solve(prob, ilp.Options{MaxNodes: maxNodes, Workers: workers, Cancel: cancel, Stats: &st.Steal})
	if sol.X == nil {
		extended := st.Steal
		spills, st = DecideSpillsCancel(f, k, maxNodes, workers, cancel)
		st.Steal.Merge(extended) // keep the abandoned extended solve's effort visible
		return spills, nil, st
	}
	st.ILPOptimal = sol.Optimal
	st.ILPNodes = sol.Nodes
	st.ILPComponents = sol.Components
	st.ILPReductions = sol.Reductions
	st.ILPPruned = sol.Pruned
	st.Cancelled = sol.Cancelled
	n := f.NumRegs()
	var chosen []LoopSpillCandidate
	for v, on := range sol.X {
		if !on {
			continue
		}
		if v < n {
			spills[ir.Reg(v)] = true
			st.ILPSpilled++
		} else {
			chosen = append(chosen, cands[v-n])
			st.LoopSpilled++
		}
	}
	return spills, chosen, st
}

// Allocate runs both phases and returns the rewritten function, the
// assignment, and spill statistics.
func Allocate(f *ir.Func, opts Options) (*ir.Func, *regalloc.Assignment, *Stats, error) {
	work := f.Clone()
	var spills map[ir.Reg]bool
	var loopChosen []LoopSpillCandidate
	var st Stats
	ilpSpan := opts.Trace.Child("ilp")
	if opts.DisableLoopSpills {
		spills, st = DecideSpillsCancel(work, opts.K, opts.MaxNodes, opts.Workers, opts.Cancel)
	} else {
		spills, loopChosen, st = DecideSpillsExtendedCancel(work, opts.K, opts.MaxNodes, opts.Workers, opts.Cancel)
	}
	ilpSpan.Add("constraints", int64(st.Constraints))
	ilpSpan.Add("nodes", int64(st.ILPNodes))
	ilpSpan.Add("components", int64(st.ILPComponents))
	ilpSpan.Add("reductions", int64(st.ILPReductions))
	ilpSpan.Add("pruned", int64(st.ILPPruned))
	ilpSpan.Add("spilled_ranges", int64(st.ILPSpilled))
	ilpSpan.Add("loop_spills", int64(st.LoopSpilled))
	ilpSpan.Add("steal_epochs", st.Steal.Epochs)
	ilpSpan.Add("steal_items", st.Steal.Items)
	ilpSpan.Add("steal_broadcasts", st.Steal.Broadcasts)
	ilpSpan.SetAttr("optimal", st.ILPOptimal)
	ilpSpan.SetAttr("cancelled", st.Cancelled)
	ilpSpan.End()
	if !st.ILPOptimal && !st.Cancelled {
		// Budget exhaustion silently degrades spill quality; make it
		// visible in `diffra -metrics` output instead.
		telemetry.Default.Counter("spill_nonoptimal").Inc()
	}
	// Epoch scheduler health: epochs/items/broadcasts are
	// deterministic per workload (a drift signals a search change).
	telemetry.Default.Counter("ilp_steal_epochs").Add(st.Steal.Epochs)
	telemetry.Default.Counter("ilp_steal_items").Add(st.Steal.Items)
	telemetry.Default.Counter("ilp_steal_broadcasts").Add(st.Steal.Broadcasts)
	if st.Cancelled || (opts.Cancel != nil && opts.Cancel()) {
		return nil, nil, nil, ErrCancelled
	}

	slots := regalloc.NewSlotAssigner()
	stackParams := map[ir.Reg]int64{}
	for _, p := range work.Params {
		if spills[p] {
			stackParams[p] = slots.SlotOf(p)
		}
	}
	var inserted int
	for _, c := range loopChosen {
		inserted += ApplyLoopSpill(work, c, slots)
	}
	if len(spills) > 0 {
		_, n := regalloc.RewriteSpills(work, spills, slots)
		inserted += n
	}
	if err := work.Verify(); err != nil {
		return nil, nil, nil, err
	}

	colorSpan := opts.Trace.Child("color")
	out, asn, err := irc.Allocate(work, irc.Options{
		K:             opts.K,
		Picker:        opts.Picker,
		PickerFactory: opts.PickerFactory,
		Slots:         slots,
		Trace:         colorSpan,
	})
	colorSpan.End()
	if err != nil {
		return nil, nil, nil, err
	}
	st.ResidualSpilled = asn.SpilledVRegs
	asn.SpilledVRegs += st.ILPSpilled
	asn.SpillInstrs += inserted
	for p, slot := range stackParams {
		asn.StackParams[p] = slot
	}
	return out, asn, &st, nil
}

// sortedRegs is a test helper exposing a deterministic view of a
// spill set.
func sortedRegs(m map[ir.Reg]bool) []int {
	out := make([]int, 0, len(m))
	for r := range m {
		out = append(out, int(r))
	}
	sort.Ints(out)
	return out
}
