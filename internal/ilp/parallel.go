package ilp

// Work items are the unit of parallelism: each is a root-fixed subtree
// of one component (epoch 0: the whole component, no fixes). Items are
// produced by the search itself — a chunk that exhausts its node
// budget serializes its unexplored frontier into child items — and
// scheduled by the deterministic epoch engine in steal.go, so the item
// population adapts to where the instance is actually hard instead of
// being guessed up front. X, Cost, Optimal, Nodes and
// Pruned remain bit-identical at any worker count.

// varFix is one root decision of a work item: variable v fixed to 1
// (with exclusivity propagation) or to 0.
type varFix struct {
	v   int
	one bool
}

type workItem struct {
	comp  int // index into preprocessed.comps
	fixes []varFix
}

// solveSteal runs the decomposed search on the epoch engine:
// one group per component, seeded with one fix-free item each and the
// component greedy cost as the starting incumbent bound.
func solveSteal(pre *preprocessed, maxNodes int, opts Options) []GroupOut[[]bool] {
	items := make([]workItem, len(pre.comps))
	bounds := make([]float64, len(pre.comps))
	for ci, c := range pre.comps {
		items[ci] = workItem{comp: ci}
		bounds[ci] = c.greedyCost
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	// Per-worker scratch arenas, keyed by component; each index is
	// only ever touched by the goroutine running as worker w.
	states := make([]map[int]*bbState, workers)
	return RunSteal(StealConfig[workItem, []bool]{
		Groups:   len(pre.comps),
		GroupOf:  func(it workItem) int { return it.comp },
		Items:    items,
		Bound:    bounds,
		MaxNodes: maxNodes,
		Workers:  workers,
		Cancel:   opts.Cancel,
		Stats:    opts.Stats,
		Run: func(w int, it workItem, bound float64, chunk int) ChunkOut[workItem, []bool] {
			m := states[w]
			if m == nil {
				m = map[int]*bbState{}
				states[w] = m
			}
			st := m[it.comp]
			if st == nil {
				st = newBBState(pre.comps[it.comp])
				m[it.comp] = st
			}
			r := st.solveChunk(it.fixes, bound, chunk, opts.Cancel)
			out := ChunkOut[workItem, []bool]{
				Found:     r.found,
				Cost:      r.cost,
				Best:      r.best,
				Nodes:     r.nodes,
				Pruned:    r.pruned,
				Cancelled: r.cancelled,
			}
			for _, f := range r.frontier {
				out.Children = append(out.Children, workItem{comp: it.comp, fixes: f})
			}
			return out
		},
	})
}
