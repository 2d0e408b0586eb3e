// Package scratch provides per-compile bump arenas: typed backing
// arrays that are carved into zeroed slices and rewound wholesale
// between uses. The steady-state compile path (irc, liveness, diffenc)
// allocates its working state from one Arena per request, so a warm
// service worker does near-zero heap work per compile.
//
// Ownership rules (see DESIGN.md "Memory discipline"):
//
//   - An Arena is owned by exactly one goroutine at a time; it is not
//     safe for concurrent use. The service keeps one per worker slot.
//   - Reset rewinds every block to empty. Memory handed out earlier
//     stays valid to *read* until the next carve reuses it, but callers
//     must treat Reset as invalidating everything: a phase that resets
//     must not hold arena-backed data from a previous phase.
//   - Anything that escapes into a caller-visible result must be heap
//     allocated, never arena-backed.
package scratch

import "diffra/internal/bitset"

// block is one typed bump region. Carving past the backing's end
// abandons the old backing (still referenced by live slices) and
// starts a doubled fresh one, so previously returned slices are never
// invalidated by growth.
type block[T any] struct {
	buf []T
	off int
}

func carve[T any](b *block[T], n int) []T {
	if n < 0 {
		panic("scratch: negative carve")
	}
	if b.off+n > len(b.buf) {
		size := 2 * len(b.buf)
		if size < b.off+n {
			size = b.off + n
		}
		if size < 64 {
			size = 64
		}
		b.buf = make([]T, size)
		b.off = 0
	}
	s := b.buf[b.off : b.off+n : b.off+n]
	b.off += n
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// Arena is a set of typed bump regions. The zero value is ready to
// use; it grows on demand and retains capacity across Reset.
type Arena struct {
	ints   block[int]
	u64    block[uint64]
	f64    block[float64]
	bools  block[bool]
	bytes  block[byte]
	intSl  block[[]int]
	sets   block[bitset.Set]
	setPtr block[*bitset.Set]
}

// Reset rewinds every region to empty, keeping the backing arrays for
// reuse. See the package comment for what Reset invalidates. A nil
// Arena, which callers pass for "no arena", has nothing to reset.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.ints.off = 0
	a.u64.off = 0
	a.f64.off = 0
	a.bools.off = 0
	a.bytes.off = 0
	a.intSl.off = 0
	a.sets.off = 0
	a.setPtr.off = 0
}

// Ints returns a zeroed []int of length and capacity n.
func (a *Arena) Ints(n int) []int { return carve(&a.ints, n) }

// Uint64s returns a zeroed []uint64 of length and capacity n.
func (a *Arena) Uint64s(n int) []uint64 { return carve(&a.u64, n) }

// Float64s returns a zeroed []float64 of length and capacity n.
func (a *Arena) Float64s(n int) []float64 { return carve(&a.f64, n) }

// Bools returns a zeroed []bool of length and capacity n.
func (a *Arena) Bools(n int) []bool { return carve(&a.bools, n) }

// Bytes returns a zeroed []byte of length and capacity n.
func (a *Arena) Bytes(n int) []byte { return carve(&a.bytes, n) }

// IntSlices returns a zeroed [][]int of length and capacity n, for
// CSR-style structures whose per-row storage is carved from Ints.
func (a *Arena) IntSlices(n int) [][]int { return carve(&a.intSl, n) }

// Bitset returns an empty arena-backed set with capacity nbits. The
// set may grow past nbits; growth migrates its words to the heap
// without disturbing the arena.
func (a *Arena) Bitset(nbits int) *bitset.Set {
	hdr := carve(&a.sets, 1)
	hdr[0] = bitset.Make(carve(&a.u64, (nbits+63)/64))
	return &hdr[0]
}

// Bitsets returns count independent empty sets of capacity nbits each,
// with headers and words carved from the arena in one pass.
func (a *Arena) Bitsets(count, nbits int) []*bitset.Set {
	ptrs := carve(&a.setPtr, count)
	hdrs := carve(&a.sets, count)
	words := carve(&a.u64, count*((nbits+63)/64))
	w := (nbits + 63) / 64
	for i := range hdrs {
		hdrs[i] = bitset.Make(words[i*w : (i+1)*w : (i+1)*w])
		ptrs[i] = &hdrs[i]
	}
	return ptrs
}
