package ir

import (
	"slices"
	"testing"
)

// diamondSrc has a branch, a join with two predecessors and a loop, so
// its edge lists sit side by side in the edge slab.
const diamondSrc = `
func diamond(v0, v1) {
entry:
  br v0 -> left, right
left:
  v2 = li 1
  jmp join
right:
  v2 = li 2
  jmp join
join:
  blt v2, v1 -> join, exit
exit:
  ret v2
}
`

// edgeLists returns a copy of every edge list of f: each block's
// successors, then its predecessors.
func edgeLists(f *Func) [][]*Block {
	var out [][]*Block
	for _, b := range f.Blocks {
		out = append(out, slices.Clone(b.Succs), slices.Clone(b.Preds))
	}
	return out
}

// sameLists fails unless f's edge lists still equal want, skipping the
// list at index skip (-1: none).
func sameLists(t *testing.T, what string, f *Func, want [][]*Block, skip int) {
	t.Helper()
	for i, l := range edgeLists(f)[:len(want)] {
		if i != skip && !slices.Equal(l, want[i]) {
			b := f.Blocks[i/2]
			t.Fatalf("%s: %s's list %d changed: %v -> %v", what, b.Name, i%2, names(want[i]), names(l))
		}
	}
}

func names(l []*Block) []string {
	var s []string
	for _, b := range l {
		s = append(s, b.Name)
	}
	return s
}

// TestEdgeCarvesNeverClobberNeighbours checks that an append past an
// edge list's carve never writes the storage of another list: a plain
// append, AddEdge and a RecomputePreds that outgrows a list all copy
// out, on a parsed function and on its clone.
func TestEdgeCarvesNeverClobberNeighbours(t *testing.T) {
	for _, f := range []*Func{MustParse(diamondSrc), MustParse(diamondSrc).Clone()} {
		want := edgeLists(f)
		stray := f.NewBlock("stray")

		// A plain append writes at most the list's own spare room.
		for i := range want {
			b := f.Blocks[i/2]
			l := &b.Succs
			if i%2 == 1 {
				l = &b.Preds
			}
			for k := 0; k < 3; k++ {
				*l = append(*l, stray)
			}
			sameLists(t, "append", f, want, i)
			*l = (*l)[:len(want[i])]
		}
		f.Blocks = f.Blocks[:len(f.Blocks)-1]

		// AddEdge past the carves of entry's successors and of every
		// block's predecessors.
		entry := f.Entry()
		for _, b := range f.Blocks[1:] {
			f.AddEdge(entry, b)
		}
		for i, b := range f.Blocks {
			if b == entry {
				if got := names(b.Succs[:len(want[0])]); !slices.Equal(got, names(want[0])) {
					t.Fatalf("AddEdge: entry's successors became %v", names(b.Succs))
				}
				continue
			}
			if !slices.Equal(b.Succs, want[2*i]) {
				t.Fatalf("AddEdge: %s's successors became %v", b.Name, names(b.Succs))
			}
			if got := b.Preds[:len(b.Preds)-1]; !slices.Equal(got, want[2*i+1]) || b.Preds[len(b.Preds)-1] != entry {
				t.Fatalf("AddEdge: %s's predecessors became %v", b.Name, names(b.Preds))
			}
		}

		// Point every successor at exit, so exit's predecessors outgrow
		// their carve while the other lists shrink in place.
		exit := f.BlockByName("exit")
		for _, b := range f.Blocks {
			for i := range b.Succs {
				b.Succs[i] = exit
			}
		}
		succs := edgeLists(f)
		f.RecomputePreds()
		var preds []*Block
		for _, b := range f.Blocks {
			for range b.Succs {
				preds = append(preds, b)
			}
		}
		for i, b := range f.Blocks {
			if !slices.Equal(b.Succs, succs[2*i]) {
				t.Fatalf("RecomputePreds: %s's successors became %v", b.Name, names(b.Succs))
			}
			if b != exit && len(b.Preds) != 0 {
				t.Fatalf("RecomputePreds: %s kept predecessors %v", b.Name, names(b.Preds))
			}
		}
		if !slices.Equal(exit.Preds, preds) {
			t.Fatalf("RecomputePreds: exit's predecessors %v, want %v", names(exit.Preds), names(preds))
		}
	}
}

// TestCloneResolvesStaleIndexes checks that Clone maps an edge to its
// target's counterpart even when Block.Index is stale.
func TestCloneResolvesStaleIndexes(t *testing.T) {
	f := MustParse(diamondSrc)
	f.Blocks[1], f.Blocks[2] = f.Blocks[2], f.Blocks[1]
	g := f.Clone()
	for i, b := range f.Blocks {
		if got, want := names(g.Blocks[i].Succs), names(b.Succs); !slices.Equal(got, want) {
			t.Fatalf("%s: clone's successors %v, want %v", b.Name, got, want)
		}
		for _, s := range g.Blocks[i].Succs {
			if !slices.Contains(g.Blocks, s) {
				t.Fatalf("%s: clone's successor %s is not the clone's", b.Name, s.Name)
			}
		}
	}
}
