package telemetry

// spanStore is the storage of one span tree, owned by its root span:
// every span below the root, every child list, counter list and
// attribute list is carved from one of its four slabs. A list is
// carved at exact capacity, so an append past it never writes a
// neighbour's storage: the newest carve of a slab grows in place into
// the slab's free room, and any other list moves to a fresh carve at
// the slab's end (abandoning the old one). A slab allocates chunks of
// a fixed size, so a tree's slack is at most one partly filled chunk
// per slab, and retained trees share a few small allocation size
// classes. Chunks sized to each tree would hold no slack in a tree
// shaped like the last one, but other trees scatter their chunks over
// many size classes, which fragments the heap that keeps them: on the
// miss-remap workload that retained 22% more than per-span
// allocation, against 4% for these sizes. Chunks are never
// reallocated, so carved spans and lists stay where they are.
type spanStore struct {
	tracer   *Tracer
	spans    slab[Span]
	kids     slab[*Span]
	counters slab[CounterValue]
	attrs    slab[Attr]
}

// Chunk sizes in items, each chunk under 600 bytes: a compile's tree
// takes two or three span chunks, one or two of the others.
const (
	spanChunk    = 4
	kidChunk     = 8
	counterChunk = 16
	attrChunk    = 8
)

func (st *spanStore) init(t *Tracer) {
	st.tracer = t
	st.spans.size = spanChunk
	st.kids.size = kidChunk
	st.counters.size = counterChunk
	st.attrs.size = attrChunk
}

// slab is one kind of a tree's storage: the open chunk and the size of
// every chunk.
type slab[T any] struct {
	chunk []T
	size  int
}

// carve returns an empty list with room for exactly n items, from the
// open chunk or from a new one (larger than the chunk size when n is).
func (b *slab[T]) carve(n int) []T {
	if cap(b.chunk)-len(b.chunk) < n {
		b.chunk = make([]T, 0, max(n, b.size))
	}
	o := len(b.chunk)
	b.chunk = b.chunk[:o+n]
	return b.chunk[o : o : o+n]
}

// one carves a single item.
func (b *slab[T]) one() *T { return &b.carve(1)[:1][0] }

// append appends v to l, a list carved from b.
func (b *slab[T]) append(l []T, v T) []T {
	if len(l) == cap(l) {
		l = b.grow(l)
	}
	return append(l, v)
}

// grow returns l with room for one more item: in place when l is the
// newest carve and the chunk has room, else copied to a new carve.
func (b *slab[T]) grow(l []T) []T {
	n, m := len(b.chunk), cap(l)
	if m > 0 && n > 0 && n < cap(b.chunk) && &b.chunk[n-1] == &l[:m][m-1] {
		b.chunk = b.chunk[:n+1]
		return b.chunk[n-m : n : n+1]
	}
	// Small lists move one slot at a time so they keep no slack;
	// longer ones double, which bounds what repeated moves abandon.
	room := m + 1
	if m >= 4 {
		room = 2 * m
	}
	return append(b.carve(room), l...)
}
