package irc

import (
	"testing"

	"diffra/internal/ir"
	"diffra/internal/scratch"
)

// TestPredicatePathDoesNotAllocate pins the two predicates the main
// loop asks on every turn, moveRelated (a walk of the node's move
// chain) and haveWorklistMoves (a counter), as allocation-free, along
// with the adjacent() neighbor walk they gate.
func TestPredicatePathDoesNotAllocate(t *testing.T) {
	f := ir.MustParse(`
func f(v0, v1) {
entry:
  v2 = mov v0
  v3 = mov v1
  v4 = add v2, v3
  v5 = mov v4
  v6 = add v5, v0
  ret v6
}
`)
	ar := new(scratch.Arena)
	a := newAllocState(f, 4, nil, ar, f.BlockFreqs())
	sink := false
	n := testing.AllocsPerRun(100, func() {
		for v := 0; v < a.n; v++ {
			sink = a.moveRelated(v) || sink
			a.adjacent(v, func(int) {})
		}
		sink = a.haveWorklistMoves() || sink
	})
	_ = sink
	if n != 0 {
		t.Fatalf("predicate path allocates: %v allocs/run, want 0", n)
	}
}
