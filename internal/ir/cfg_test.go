package ir

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// randomCFG builds a function of n blocks whose edges are drawn at
// random among all blocks, so self loops, back edges, loops with
// several exits, irreducible cycles and unreachable blocks all occur.
// The analyses read only the edges, so the blocks stay empty.
func randomCFG(rnd *rand.Rand, n int) *Func {
	f := NewFunc("cfg")
	for i := 0; i < n; i++ {
		f.NewBlock(fmt.Sprintf("b%d", i))
	}
	for _, b := range f.Blocks {
		for k := rnd.Intn(3); k > 0; k-- {
			f.AddEdge(b, f.Blocks[rnd.Intn(n)])
		}
	}
	return f
}

// cfgFromEdges builds a function of n blocks with the listed edges.
func cfgFromEdges(n int, edges [][2]int) *Func {
	f := NewFunc("cfg")
	for i := 0; i < n; i++ {
		f.NewBlock(fmt.Sprintf("b%d", i))
	}
	for _, e := range edges {
		f.AddEdge(f.Blocks[e[0]], f.Blocks[e[1]])
	}
	return f
}

// reachable marks the blocks reachable from the entry without passing
// through block skip (-1: none).
func reachable(f *Func, skip int) []bool {
	seen := make([]bool, len(f.Blocks))
	if len(f.Blocks) == 0 || skip == 0 {
		return seen
	}
	stack := []*Block{f.Blocks[0]}
	seen[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if s.Index != skip && !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// cfgFeatures counts the shapes a CFG exhibits, so the property test
// can require that its inputs cover them.
type cfgFeatures struct {
	unreachable, selfLoop, multiExit, irreducible int
}

// checkCFGDefinitions checks the flat CFG analyses of f against their
// definitions and returns the shapes f exhibits:
//   - a dominates reachable b iff b cannot be reached from the entry
//     once a is removed; unreachable blocks have no immediate
//     dominator and the entry is its own;
//   - the reverse postorder lists each reachable block once, the entry
//     first; back edges run backward in it, an edge that runs backward
//     closes a cycle, and in a reducible CFG every other edge runs
//     forward;
//   - a natural loop's body is its header plus the blocks that reach a
//     back-edge source (an edge b->h with h dominating reachable b)
//     without passing the header, one loop per header in the order of
//     the headers' first back edges;
//   - a block's depth is the number of loops containing it, and its
//     frequency 10^depth.
func checkCFGDefinitions(t *testing.T, name string, f *Func) cfgFeatures {
	t.Helper()
	n := len(f.Blocks)
	reach := reachable(f, -1)
	dom := make([][]bool, n) // dom[a][b]: a dominates reachable b, by definition
	for a := 0; a < n; a++ {
		without := reachable(f, a)
		dom[a] = make([]bool, n)
		for b := 0; b < n; b++ {
			dom[a][b] = reach[b] && !without[b]
		}
	}

	idom := f.Dominators()
	var feat cfgFeatures
	for _, b := range f.Blocks {
		switch {
		case !reach[b.Index]:
			feat.unreachable++
			if idom[b.Index] != nil {
				t.Errorf("%s: unreachable %s has idom %s", name, b.Name, idom[b.Index].Name)
			}
			continue
		case b.Index == 0 && idom[0] != b:
			t.Errorf("%s: entry's idom is %v, want itself", name, idom[0])
		}
		for _, a := range f.Blocks {
			if got := Dominates(idom, a, b); got != dom[a.Index][b.Index] {
				t.Errorf("%s: Dominates(%s, %s) = %v, definition says %v", name, a.Name, b.Name, got, dom[a.Index][b.Index])
			}
		}
	}
	rpo := f.ReversePostorder()
	nreach := 0
	for _, r := range reach {
		if r {
			nreach++
		}
	}
	if len(rpo) != nreach || (nreach > 0 && rpo[0] != f.Blocks[0]) {
		t.Errorf("%s: reverse postorder %d blocks (first %v), want the %d reachable ones from the entry", name, len(rpo), rpo, nreach)
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, b := range rpo {
		if !reach[b.Index] {
			t.Errorf("%s: reverse postorder lists unreachable %s", name, b.Name)
		}
		if pos[b.Index] >= 0 {
			t.Errorf("%s: reverse postorder lists %s twice", name, b.Name)
		}
		pos[b.Index] = i
	}
	// A back edge (its target dominates its source) runs backward in a
	// reverse postorder, and an edge that runs backward closes a cycle.
	// Where no other edge closes one (a reducible CFG, checked below),
	// every other edge runs forward.
	var backward [][2]*Block // edges of neither kind that run backward
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			switch {
			case !reach[b.Index]:
			case dom[s.Index][b.Index]:
				if pos[s.Index] > pos[b.Index] {
					t.Errorf("%s: back edge %s->%s runs forward in the reverse postorder", name, b.Name, s.Name)
				}
			case pos[s.Index] <= pos[b.Index]:
				if !reachesFrom(f, s.Index)[b.Index] {
					t.Errorf("%s: edge %s->%s runs backward in the reverse postorder but closes no cycle", name, b.Name, s.Name)
				}
				backward = append(backward, [2]*Block{b, s})
			}
		}
	}

	// Expected loops: headers in order of their first back edge, bodies
	// by a backward walk from the sources that never enters the header.
	var headers []int
	sources := map[int][]int{}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if s == b {
				feat.selfLoop++
			}
			if !reach[b.Index] || !dom[s.Index][b.Index] {
				continue
			}
			if sources[s.Index] == nil {
				headers = append(headers, s.Index)
			}
			sources[s.Index] = append(sources[s.Index], b.Index)
		}
	}
	want := make([][]bool, len(headers))
	depth := make([]int, n)
	for l, h := range headers {
		body := make([]bool, n)
		body[h] = true
		stack := append([]int(nil), sources[h]...)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if body[x] {
				continue
			}
			body[x] = true
			for _, p := range f.Blocks[x].Preds {
				stack = append(stack, p.Index)
			}
		}
		want[l] = body
		exits := 0
		for x := range body {
			if !body[x] {
				continue
			}
			depth[x]++
			for _, s := range f.Blocks[x].Succs {
				if !body[s.Index] {
					exits++
				}
			}
		}
		if exits > 1 {
			feat.multiExit++
		}
	}
	loops := f.NaturalLoops()
	if len(loops) != len(headers) {
		t.Fatalf("%s: %d loops, definition gives %d", name, len(loops), len(headers))
	}
	for l, lp := range loops {
		if lp.Header.Index != headers[l] {
			t.Errorf("%s: loop %d header %s, want b%d", name, l, lp.Header.Name, headers[l])
		}
		got := make([]bool, n)
		for i, x := range lp.Blocks {
			if got[x] || (i == 0) != (x == lp.Header.Index) {
				t.Errorf("%s: loop %s lists blocks %v, want the header first and each block once", name, lp.Header.Name, lp.Blocks)
			}
			got[x] = true
		}
		for x := 0; x < n; x++ {
			if got[x] != want[l][x] {
				t.Errorf("%s: loop %s has b%d = %v, definition says %v", name, lp.Header.Name, x, got[x], want[l][x])
			}
		}
	}
	gotDepth, freq := f.LoopDepths(), f.BlockFreqs()
	for x := 0; x < n; x++ {
		if gotDepth[x] != depth[x] {
			t.Errorf("%s: depth(b%d) = %d, %d loops contain it", name, x, gotDepth[x], depth[x])
		}
		if w := math.Pow(10, float64(depth[x])); freq[x] != w {
			t.Errorf("%s: freq(b%d) = %v, want %v", name, x, freq[x], w)
		}
	}

	// Irreducible: a cycle among reachable blocks that survives the
	// removal of every back edge (Kahn's algorithm leaves it unsorted).
	indeg := make([]int, n)
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if reach[b.Index] && !dom[s.Index][b.Index] {
				indeg[s.Index]++
			}
		}
	}
	var queue []int
	for x := 0; x < n; x++ {
		if reach[x] && indeg[x] == 0 {
			queue = append(queue, x)
		}
	}
	sorted := 0
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		sorted++
		for _, s := range f.Blocks[x].Succs {
			if dom[s.Index][x] {
				continue
			}
			if indeg[s.Index]--; indeg[s.Index] == 0 {
				queue = append(queue, s.Index)
			}
		}
	}
	if sorted < nreach {
		feat.irreducible++
	} else {
		for _, e := range backward {
			t.Errorf("%s: reducible, yet edge %s->%s runs backward in the reverse postorder", name, e[0].Name, e[1].Name)
		}
	}
	return feat
}

// reachesFrom marks the blocks reachable from block from, itself
// included.
func reachesFrom(f *Func, from int) []bool {
	seen := make([]bool, len(f.Blocks))
	seen[from] = true
	stack := []int{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range f.Blocks[b].Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s.Index)
			}
		}
	}
	return seen
}

// TestCFGAnalysesMatchDefinitions checks the dominator tree, the
// reverse postorder, natural loops, loop depths and block frequencies
// against their definitions
// on hand-made shapes and 600 random CFGs, and requires the inputs to
// include unreachable blocks, self loops, loops with several exits
// and irreducible cycles.
func TestCFGAnalysesMatchDefinitions(t *testing.T) {
	shapes := map[string]*Func{
		"self-loop":   cfgFromEdges(3, [][2]int{{0, 1}, {1, 1}, {1, 2}}),
		"multi-exit":  cfgFromEdges(5, [][2]int{{0, 1}, {1, 2}, {1, 4}, {2, 3}, {2, 4}, {3, 1}}),
		"irreducible": cfgFromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 1}, {2, 3}}),
		"unreachable": cfgFromEdges(5, [][2]int{{0, 1}, {1, 0}, {3, 4}, {4, 3}, {4, 1}}),
		"nested":      cfgFromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 2}, {2, 3}, {3, 1}, {3, 4}}),
		"single":      cfgFromEdges(1, nil),
	}
	var total cfgFeatures
	add := func(f cfgFeatures) {
		total.unreachable += f.unreachable
		total.selfLoop += f.selfLoop
		total.multiExit += f.multiExit
		total.irreducible += f.irreducible
	}
	for name, f := range shapes {
		add(checkCFGDefinitions(t, name, f))
	}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 600; i++ {
		f := randomCFG(rnd, 1+rnd.Intn(12))
		add(checkCFGDefinitions(t, fmt.Sprintf("random%d", i), f))
	}
	t.Logf("shapes covered: %+v", total)
	if total.unreachable == 0 || total.selfLoop == 0 || total.multiExit == 0 || total.irreducible == 0 {
		t.Errorf("inputs miss a shape: %+v", total)
	}
}

// TestLoopAnalysesScaleWithLoopSize builds a chain of 2,000 two-block
// loops and requires the loop analyses to allocate in proportion to
// blocks plus total loop size, not to blocks × loops: a per-loop
// block-indexed membership array would take about 8 MB here.
func TestLoopAnalysesScaleWithLoopSize(t *testing.T) {
	const loops = 2000
	var edges [][2]int
	for l := 0; l < loops; l++ {
		h := 1 + 2*l
		edges = append(edges, [2]int{h - 1, h}, [2]int{h, h + 1}, [2]int{h + 1, h}, [2]int{h + 1, h + 2})
	}
	f := cfgFromEdges(2*loops+2, edges)
	for name, run := range map[string]func(){
		"NaturalLoops": func() { f.NaturalLoops() },
		"BlockFreqs":   func() { f.BlockFreqs() },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20); got > limit {
			t.Errorf("%s allocated %d bytes on %d blocks and %d loops, want at most %d", name, got, len(f.Blocks), loops, limit)
		}
	}
	if got := len(f.NaturalLoops()); got != loops {
		t.Fatalf("%d loops, want %d", got, loops)
	}
}
