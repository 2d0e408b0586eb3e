package ir

// The CFG analyses number blocks by Block.Index and keep every
// per-block fact in a flat slice indexed by it: no map keyed by *Block,
// and one allocation per intermediate array rather than one per block
// or per loop. Block frequencies are asked for by every allocator on
// every compile, so this path stays cheap.

// domTree is the dominator analysis in flat form. Unreachable blocks
// have no position and no immediate dominator (-1 in both).
type domTree struct {
	rpo   []int // reachable block indexes in reverse postorder
	order []int // by Block.Index: position in rpo
	idom  []int // by Block.Index: immediate dominator's index (the entry's is its own)
}

// Postorder appends to post the indexes of the blocks reachable from
// the entry, in the postorder of a depth-first search that visits
// successors in order and marks a block when it pushes it. Every
// analysis that needs a depth-first order walks this one. The buffers
// are the caller's, so a caller with an arena allocates nothing: seen
// must hold len(f.Blocks) zeros and comes back nonzero exactly at the
// reachable blocks, stack is scratch for up to 2·len(f.Blocks) ints,
// and post needs room for len(f.Blocks) more.
func (f *Func) Postorder(post, seen, stack []int) []int {
	e := f.Entry()
	if e == nil {
		return post
	}
	stack = append(stack[:0], e.Index, 0) // (block, next successor) pairs
	seen[e.Index] = 1
	for len(stack) > 0 {
		top := len(stack) - 2
		b := f.Blocks[stack[top]]
		if i := stack[top+1]; i < len(b.Succs) {
			stack[top+1]++
			if s := b.Succs[i].Index; seen[s] == 0 {
				seen[s] = 1
				stack = append(stack, s, 0)
			}
			continue
		}
		post = append(post, b.Index)
		stack = stack[:top]
	}
	return post
}

// domTree numbers the reachable blocks in reverse postorder, then
// computes immediate dominators with the Cooper–Harvey–Kennedy
// iterative algorithm.
func (f *Func) domTree() domTree {
	n := len(f.Blocks)
	buf := make([]int, 5*n)
	t := domTree{order: buf[:n], idom: buf[n : 2*n]}
	// order, still zero, is the walk's visited mark.
	post := f.Postorder(buf[2*n:2*n:3*n], t.order, buf[3*n:3*n:5*n])
	for i := range t.order {
		t.order[i] = -1
		t.idom[i] = -1
	}
	if len(post) == 0 {
		return t
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	t.rpo = post
	for i, b := range t.rpo {
		t.order[b] = i
	}

	order, idom := t.order, t.idom
	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	entry := t.rpo[0]
	idom[entry] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range t.rpo[1:] {
			newIdom := -1
			for _, p := range f.Blocks[b].Preds {
				if idom[p.Index] < 0 {
					continue // pred not yet processed or unreachable
				}
				if newIdom < 0 {
					newIdom = p.Index
				} else {
					newIdom = intersect(p.Index, newIdom)
				}
			}
			if newIdom >= 0 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return t
}

// dominates reports whether block a dominates block b (by index; a
// block dominates itself).
func (t *domTree) dominates(a, b int) bool {
	for {
		if a == b {
			return true
		}
		next := t.idom[b]
		if next < 0 || next == b {
			return false
		}
		b = next
	}
}

// ReversePostorder returns the blocks reachable from the entry in
// reverse Postorder. Forward dataflow passes iterate in this order for
// fast convergence: only an edge that closes a cycle runs backward in
// it, and in a reducible CFG only a back edge does.
func (f *Func) ReversePostorder() []*Block {
	n := len(f.Blocks)
	buf := make([]int, 4*n)
	post := f.Postorder(buf[:0:n], buf[n:2*n], buf[2*n:2*n:4*n])
	rpo := make([]*Block, len(post))
	for i, b := range post {
		rpo[len(post)-1-i] = f.Blocks[b]
	}
	return rpo
}

// Dominators computes the immediate dominator of every block, indexed
// by Block.Index, using the Cooper–Harvey–Kennedy iterative algorithm.
// The entry block dominates itself; unreachable blocks have nil.
func (f *Func) Dominators() []*Block {
	t := f.domTree()
	idom := make([]*Block, len(f.Blocks))
	for b, d := range t.idom {
		if d >= 0 {
			idom[b] = f.Blocks[d]
		}
	}
	return idom
}

// Dominates reports whether a dominates b under idom, the result of
// Dominators (a block dominates itself).
func Dominates(idom []*Block, a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		next := idom[b.Index]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// Loop is a natural loop: the header plus all blocks that can reach
// the back-edge source without passing through the header.
type Loop struct {
	Header *Block
	// Blocks holds the Block.Index of every block in the loop, header
	// first, each once.
	Blocks []int
}

// loopForest is the flat form of the natural loops: the headers'
// indexes in discovery order and, for loop i, the indexes of its
// blocks, body[off[i]:off[i+1]], header first.
type loopForest struct {
	headers []int
	off     []int
	body    []int
}

// loopForest finds the natural loops. A back edge is an edge b->h
// where h dominates b; loops sharing a header are merged, and a loop is
// discovered at its first back edge in block and successor order. Each
// loop's body is walked backwards over predecessors from its back-edge
// sources, stopping at blocks already in the body (the header is in it
// from the start).
func (f *Func) loopForest() loopForest {
	t := f.domTree()
	n := len(f.Blocks)
	ne := 0
	for _, b := range f.Blocks {
		ne += len(b.Succs)
	}
	// One slab holds every list below: headers (n), edges (2ne), srcOff
	// and off (nl+1 <= n+1 each), srcs (<= ne), mark (n), and body and
	// the walk stack, which start with room for 2n and ne+1 entries and
	// grow out of the slab if they must.
	slab := make([]int, n+2*ne+2*(n+1)+ne+n+2*n+ne+1)
	carve := func(k int) []int {
		out := slab[:k:k]
		slab = slab[k:]
		return out
	}
	var lf loopForest
	lf.headers = carve(n)[:0]
	// Back edges, as (rank of the header in discovery order, source)
	// pairs. rank reuses t.order, which dominates never reads.
	edges := carve(2 * ne)[:0]
	rank := t.order
	for i := range rank {
		rank[i] = -1
	}
	for _, b := range f.Blocks {
		if t.idom[b.Index] < 0 {
			continue
		}
		for _, s := range b.Succs {
			if !t.dominates(s.Index, b.Index) {
				continue
			}
			if rank[s.Index] < 0 {
				rank[s.Index] = len(lf.headers)
				lf.headers = append(lf.headers, s.Index)
			}
			edges = append(edges, rank[s.Index], b.Index)
		}
	}
	nl := len(lf.headers)
	if nl == 0 {
		return lf
	}
	// Counting sort of the sources by loop: after the prefix sums
	// srcOff[l] is the end of loop l's bucket, and filling from the last
	// edge down leaves it at the start with the edges in order.
	srcOff, srcs, mark := carve(nl+1), carve(len(edges)/2), carve(n)
	for i := 0; i < len(edges); i += 2 {
		srcOff[edges[i]]++
	}
	for l := 1; l <= nl; l++ {
		srcOff[l] += srcOff[l-1]
	}
	for i := len(edges) - 2; i >= 0; i -= 2 {
		l := edges[i]
		srcOff[l]--
		srcs[srcOff[l]] = edges[i+1]
	}

	lf.off = carve(nl + 1)[:1]
	lf.body = carve(2 * n)[:0]
	stack := carve(ne + 1)[:0]
	for l, h := range lf.headers {
		stamp := l + 1
		mark[h] = stamp
		lf.body = append(lf.body, h)
		for _, b := range srcs[srcOff[l]:srcOff[l+1]] {
			stack = append(stack, b)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if mark[x] == stamp {
					continue
				}
				mark[x] = stamp
				lf.body = append(lf.body, x)
				for _, p := range f.Blocks[x].Preds {
					stack = append(stack, p.Index)
				}
			}
		}
		lf.off = append(lf.off, len(lf.body))
	}
	return lf
}

// NaturalLoops finds the natural loops of the function. A back edge is
// an edge b->h where h dominates b. Loops sharing a header are merged;
// the loops come in the order of their first back edge in block and
// successor order.
func (f *Func) NaturalLoops() []*Loop {
	lf := f.loopForest()
	nl := len(lf.headers)
	if nl == 0 {
		return nil
	}
	loops := make([]Loop, nl)
	out := make([]*Loop, nl)
	for l, h := range lf.headers {
		end := lf.off[l+1]
		loops[l] = Loop{Header: f.Blocks[h], Blocks: lf.body[lf.off[l]:end:end]}
		out[l] = &loops[l]
	}
	return out
}

// LoopDepths returns each block's loop nesting depth, indexed by
// Block.Index (0 outside all loops): the number of natural loops that
// contain it. Used to weight spill costs and adjacency edge
// frequencies.
func (f *Func) LoopDepths() []int {
	lf := f.loopForest()
	depth := make([]int, len(f.Blocks))
	for _, b := range lf.body {
		depth[b]++
	}
	return depth
}

// BlockFreqs estimates a static execution frequency for each block,
// indexed by Block.Index: 10^depth, the classic Chaitin spill-cost
// weighting. The paper (§4) notes profile frequencies should be
// reflected in adjacency edge weights; this is the static estimate its
// evaluation used.
func (f *Func) BlockFreqs() []float64 {
	lf := f.loopForest()
	freq := make([]float64, len(f.Blocks))
	for i := range freq {
		freq[i] = 1
	}
	for _, b := range lf.body {
		freq[b] *= 10
	}
	return freq
}
