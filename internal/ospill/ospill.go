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
// coalescing allocator. Differential coalesce (§7) reuses the spilling
// phase through Decide and colors with its own loop.
package ospill

import (
	"errors"
	"slices"

	"diffra/internal/ilp"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/regalloc"
	"diffra/internal/scratch"
	"diffra/internal/telemetry"
)

// Options configures the allocator.
type Options struct {
	// K is the number of machine registers.
	K int
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
	// Scratch, when non-nil, supplies the arena the spill decision
	// carves its liveness from, without resetting it; nothing carved
	// outlives Decide. Allocate then hands it to the coloring phase,
	// which resets it every round. Never changes the result. Nil:
	// private arenas.
	Scratch *scratch.Arena
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

// Decide makes the spill decision for f under opts, over loop spills
// unless opts.DisableLoopSpills, without rewriting f. It returns the
// whole-range spills as ascending vregs, the chosen loop spills and
// Stats, which say whether the set is provably optimal; when
// opts.Cancel fires, Stats report Cancelled and the spills are the
// best incumbent found so far. The decision is reported only as an
// "ilp" child span of opts.Trace: the solver's counters, the
// scheduler's steal_* counters and, when a budget cut the search short,
// nonoptimal. Allocate and differential coalesce both decide through
// it.
func Decide(f *ir.Func, opts Options) ([]int, []LoopSpillCandidate, Stats) {
	ilpSpan := opts.Trace.Child("ilp")
	spills, loopChosen, st := decide(f, opts, !opts.DisableLoopSpills)
	ilpSpan.Add("constraints", int64(st.Constraints))
	ilpSpan.Add("nodes", int64(st.ILPNodes))
	ilpSpan.Add("components", int64(st.ILPComponents))
	ilpSpan.Add("reductions", int64(st.ILPReductions))
	ilpSpan.Add("pruned", int64(st.ILPPruned))
	ilpSpan.Add("spilled_ranges", int64(st.ILPSpilled))
	ilpSpan.Add("loop_spills", int64(st.LoopSpilled))
	// Epoch scheduler health: epochs/items/broadcasts are
	// deterministic per workload (a drift signals a search change).
	ilpSpan.Add("steal_epochs", st.Steal.Epochs)
	ilpSpan.Add("steal_items", st.Steal.Items)
	ilpSpan.Add("steal_broadcasts", st.Steal.Broadcasts)
	ilpSpan.SetAttr("optimal", st.ILPOptimal)
	ilpSpan.SetAttr("cancelled", st.Cancelled)
	if !st.ILPOptimal && !st.Cancelled {
		// Budget exhaustion silently degrades spill quality; count it
		// so it shows in every registry the span tree is folded into.
		ilpSpan.Add("nonoptimal", 1)
	}
	ilpSpan.End()
	return spills, loopChosen, st
}

// decide solves the whole-range model, or with loops the extended one.
// When the extended program yields no feasible solution within budget,
// it falls back to the whole-range model (always feasible) and keeps
// the abandoned solve's scheduler effort in Stats.Steal.
func decide(f *ir.Func, opts Options, loops bool) ([]int, []LoopSpillCandidate, Stats) {
	prob, cands := buildProblem(f, opts.K, loops, opts.Scratch)
	st := Stats{Constraints: len(prob.Constraints)}
	if len(prob.Constraints) == 0 {
		st.ILPOptimal = true
		return nil, nil, st
	}
	sol := ilp.Solve(prob, ilp.Options{MaxNodes: opts.MaxNodes, Workers: opts.Workers, Cancel: opts.Cancel, Stats: &st.Steal})
	if sol.X == nil && loops {
		spills, _, whole := decide(f, opts, false)
		whole.Steal.Merge(st.Steal)
		return spills, nil, whole
	}
	st.ILPOptimal = sol.Optimal
	st.ILPNodes = sol.Nodes
	st.ILPComponents = sol.Components
	st.ILPReductions = sol.Reductions
	st.ILPPruned = sol.Pruned
	st.Cancelled = sol.Cancelled
	n := f.NumRegs()
	var spills []int
	var chosen []LoopSpillCandidate
	for v, on := range sol.X {
		switch {
		case !on:
		case v < n:
			spills = append(spills, v)
			st.ILPSpilled++
		default:
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
	spills, loopChosen, st := Decide(work, opts)
	if st.Cancelled || (opts.Cancel != nil && opts.Cancel()) {
		return nil, nil, nil, ErrCancelled
	}

	// Spilled parameters take the first slots, ahead of the loop spills.
	slots := regalloc.NewSlotAssigner()
	for _, p := range work.Params {
		if _, ok := slices.BinarySearch(spills, int(p)); ok {
			slots.SlotOf(p)
		}
	}
	var pre regalloc.Assignment
	for _, c := range loopChosen {
		pre.SpillInstrs += ApplyLoopSpill(work, c, slots)
	}
	pre.Spill(work, spills, slots)
	if err := work.Verify(); err != nil {
		return nil, nil, nil, err
	}

	// The decision's views of the arena are dead by now, so the
	// coloring may reset it.
	colorSpan := opts.Trace.Child("color")
	out, asn, err := irc.Allocate(work, irc.Options{
		K:       opts.K,
		Slots:   slots,
		Trace:   colorSpan,
		Scratch: opts.Scratch,
	})
	colorSpan.End()
	if err != nil {
		return nil, nil, nil, err
	}
	st.ResidualSpilled = asn.SpilledVRegs
	asn.SpilledVRegs += pre.SpilledVRegs
	asn.SpillInstrs += pre.SpillInstrs
	for p, slot := range pre.StackParams {
		if asn.StackParams == nil {
			asn.StackParams = map[ir.Reg]int64{}
		}
		asn.StackParams[p] = slot
	}
	return out, asn, &st, nil
}
