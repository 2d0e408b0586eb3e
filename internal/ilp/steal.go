package ilp

// Deterministic epoch scheduler for branch-and-bound searches.
//
// An earlier protocol split every instance into a FIXED work-item list
// up front. That scales only when the split guesses the hard subtrees
// correctly; on a connected instance whose difficulty concentrates in
// one region — the joint modulo-scheduling model is the standing
// example — most pre-split items finish instantly and one worker
// grinds the rest alone. This engine replaces the static split with
// dynamic frontier splitting, while keeping the solver's determinism
// contract: the returned solution is bit-identical at any worker count.
//
// The determinism argument, in three invariants:
//
//  1. Work items are generated deterministically. Search runs in
//     epochs. An item searched within an epoch runs for at most a fixed
//     node chunk; when the chunk expires, the item's unexplored
//     frontier is serialized into child items (a pure function of the
//     item and the epoch's incumbent bound, never of the worker or the
//     clock). The children of epoch e, in item order, seed epoch e+1.
//  2. Incumbents broadcast only at epoch barriers. Every item of epoch
//     e starts from the same bound B_e[group] — the best cost proved by
//     epochs < e ("epoch-stamped bound tightening"). A better incumbent
//     found mid-epoch tightens nothing until the barrier, so an item's
//     node count cannot depend on a neighbour's timing.
//  3. The reduce is order-fixed. Item results are reduced in item-index
//     order: ties between equal-cost incumbents resolve to the lowest
//     item index, and node/prune counters are summed in the same fixed
//     order.
//
// Within an epoch, par.For hands the items out to the workers from one
// shared counter. That moves only *which goroutine* runs an item; by
// invariants 1–3 it cannot move the result, so every StealStats field
// is deterministic too.

import "diffra/internal/par"

// stealChunkNodes is the node budget of one work-item chunk. Small
// enough that the frontier re-splits (and the incumbent re-broadcasts)
// many times per second on hard instances; large enough that the
// per-chunk replay of root fixes is noise.
const stealChunkNodes = 2048

// StealStats reports scheduler behaviour for telemetry. Every field
// is deterministic at any worker count.
type StealStats struct {
	// Epochs is the number of barrier-synchronized search rounds.
	Epochs int64
	// Broadcasts counts incumbent bound tightenings applied at epoch
	// barriers.
	Broadcasts int64
	// Items is the total number of work items scheduled (initial plus
	// frontier children).
	Items int64
}

// Merge accumulates another stats block into s (nil-safe).
func (s *StealStats) Merge(o StealStats) { s.add(o) }

func (s *StealStats) add(o StealStats) {
	if s == nil {
		return
	}
	s.Epochs += o.Epochs
	s.Broadcasts += o.Broadcasts
	s.Items += o.Items
}

// ChunkOut is the outcome of searching one work item for one chunk.
// P is the incumbent payload (the caller's solution representation).
type ChunkOut[I, P any] struct {
	// Children is the item's unexplored frontier, empty when the
	// subtree was exhausted within the chunk. Order matters: it becomes
	// part of the group's deterministic pending-queue order.
	Children []I
	// Found/Cost/Best report an incumbent strictly better than the
	// bound the chunk started from.
	Found bool
	Cost  float64
	Best  P
	// Nodes and Pruned are search-effort counters for this chunk.
	Nodes  int
	Pruned int
	// Cancelled is set when the caller's cancel hook fired mid-chunk.
	Cancelled bool
}

// StealConfig configures one RunSteal invocation. Run must be a pure
// function of (item, bound) up to the per-worker scratch state selected
// by w — it may NOT depend on timing, on other items, or on w in any
// way that changes its output; the engine's determinism guarantee is
// conditional on that contract.
type StealConfig[I, P any] struct {
	// Groups is the number of independent solution groups (connected
	// components for the spill ILP; 1 for the joint scheduler). Each
	// group reduces to its own incumbent and node budget.
	Groups  int
	GroupOf func(I) int
	// Items is the initial item list.
	Items []I
	// Bound is the starting incumbent cost per group (+Inf when no
	// incumbent exists). Only strictly better solutions are reported.
	Bound []float64
	// MaxNodes caps the summed node count per group. Admission control
	// enforces it exactly: an epoch admits at most ceil(remaining/chunk)
	// of a group's pending items and trims the last item's chunk to the
	// remainder. A group whose budget hits zero with pending work left
	// is marked Exhausted and its frontier is dropped.
	MaxNodes int
	// Workers is the number of goroutines an epoch's items run on
	// (<= 1: serial, on the caller's goroutine). Run's w is below
	// max(Workers, 1).
	Workers int
	Cancel  func() bool
	// Run searches one item for at most chunk nodes against the given
	// incumbent bound.
	Run   func(w int, it I, bound float64, chunk int) ChunkOut[I, P]
	Stats *StealStats
}

// GroupOut is the deterministic per-group reduction of a RunSteal.
type GroupOut[P any] struct {
	Found     bool
	Cost      float64
	Best      P
	Nodes     int
	Pruned    int
	Exhausted bool // node budget ran out with frontier remaining
	Cancelled bool
}

// RunSteal drives the epoch loop: admit pending items under the node
// budget, run them on the workers, barrier, reduce in item order,
// broadcast the tightened bounds, and go again on the frontier the
// epoch emitted.
func RunSteal[I, P any](cfg StealConfig[I, P]) []GroupOut[P] {
	outs := make([]GroupOut[P], cfg.Groups)
	bound := append([]float64(nil), cfg.Bound...)
	nodesUsed := make([]int, cfg.Groups)
	pending := make([][]I, cfg.Groups)
	for _, it := range cfg.Items {
		g := cfg.GroupOf(it)
		pending[g] = append(pending[g], it)
	}
	var stats StealStats
	cancelled := false
	for {
		// Admission: per group, at most as many chunks as the remaining
		// node budget can pay for, with the last admitted item's chunk
		// trimmed to the remainder so the budget is enforced exactly.
		// The epoch item list concatenates the groups' admitted prefixes
		// in group order (all deterministic).
		var items []I
		var chunks []int
		for g := range pending {
			if len(pending[g]) == 0 {
				continue
			}
			remaining := cfg.MaxNodes - nodesUsed[g]
			if cancelled || remaining <= 0 {
				if !cancelled {
					outs[g].Exhausted = true
				}
				pending[g] = nil
				continue
			}
			admit := (remaining + stealChunkNodes - 1) / stealChunkNodes
			if admit > len(pending[g]) {
				admit = len(pending[g])
			}
			for j := 0; j < admit; j++ {
				chunk := remaining - j*stealChunkNodes
				if chunk > stealChunkNodes {
					chunk = stealChunkNodes
				}
				items = append(items, pending[g][j])
				chunks = append(chunks, chunk)
			}
			pending[g] = pending[g][admit:]
		}
		if len(items) == 0 {
			break
		}
		stats.Epochs++
		stats.Items += int64(len(items))
		results := runEpoch(cfg, items, chunks, bound)

		for idx := range results {
			r := &results[idx]
			g := cfg.GroupOf(items[idx])
			o := &outs[g]
			o.Nodes += r.Nodes
			o.Pruned += r.Pruned
			nodesUsed[g] += r.Nodes
			if r.Cancelled {
				o.Cancelled = true
				cancelled = true
			}
			if r.Found && r.Cost < bound[g] {
				bound[g] = r.Cost
				o.Found, o.Cost, o.Best = true, r.Cost, r.Best
				stats.Broadcasts++
			}
			pending[g] = append(pending[g], r.Children...)
		}
	}
	if cancelled {
		for g := range outs {
			outs[g].Cancelled = true
		}
	}
	cfg.Stats.add(stats)
	return outs
}

// runEpoch executes one epoch's fixed item list and returns the
// per-item results (indexed slots, one writer each). Item outcomes do
// not depend on which worker runs them or in what order, so the result
// is the same at any worker count. A cancelled search admits no
// further epoch, so only the Cancel hook can stop an item here.
func runEpoch[I, P any](cfg StealConfig[I, P], items []I, chunks []int, bound []float64) []ChunkOut[I, P] {
	results := make([]ChunkOut[I, P], len(items))
	par.For(cfg.Workers, len(items), func(w, idx int) bool {
		if cfg.Cancel != nil && cfg.Cancel() {
			results[idx] = ChunkOut[I, P]{Cancelled: true}
		} else {
			results[idx] = cfg.Run(w, items[idx], bound[cfg.GroupOf(items[idx])], chunks[idx])
		}
		return true
	})
	return results
}
