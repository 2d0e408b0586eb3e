package service

import (
	"sort"
	"sync"
	"time"

	"diffra/internal/telemetry"
)

// TraceRecord is the always-on capture of one completed request:
// identity, timing (queue wait vs total), outcome, and — for requests
// that actually compiled — the full span tree the compiler emitted.
// Records are immutable once published to the buffer.
type TraceRecord struct {
	ID     int64     `json:"id"`
	Start  time.Time `json:"start"`
	Func   string    `json:"func,omitempty"`
	Scheme string    `json:"scheme,omitempty"`
	RegN   int       `json:"regn,omitempty"`
	DiffN  int       `json:"diffn,omitempty"`
	// Alloc is the resolved allocation backend that produced the result
	// — stored with the cache entry, so hits report it too (empty for
	// sheds and failures that never reached the compiler).
	Alloc  string `json:"alloc,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	// DurUS is the request's total wall time including queueing;
	// QueueUS the part spent waiting for a worker slot.
	DurUS   int64  `json:"dur_us"`
	QueueUS int64  `json:"queue_us"`
	Error   string `json:"error,omitempty"`
	Timeout bool   `json:"timeout,omitempty"`
	// TimeoutPhase / TimeoutBackend mirror the Response fields: the
	// compile phase and allocation backend running when the deadline
	// fired, so retained timeout traces are diagnosable on their own.
	TimeoutPhase   string `json:"timeout_phase,omitempty"`
	TimeoutBackend string `json:"timeout_backend,omitempty"`
	// Shed marks an admission-control rejection (429): retained like
	// other interesting records so overload windows stay inspectable.
	Shed bool `json:"shed,omitempty"`
	// Diverged reports a self-check shadow-oracle divergence on this
	// request — always retained, it is the trace you want most.
	Diverged bool `json:"selfcheck_diverged,omitempty"`

	root *telemetry.Span
}

// interesting reports whether the record must be retained regardless
// of age or speed: errors, deadline/cancellation failures and
// self-check divergences.
func (r *TraceRecord) interesting() bool {
	return r.Error != "" || r.Timeout || r.Diverged
}

// Root returns the captured span tree (nil for cache hits and when
// capture is disabled).
func (r *TraceRecord) Root() *telemetry.Span { return r.root }

// traceBuffer retains completed request traces with biased eviction:
// a ring of the most recent R requests, a min-heap of the slowest S
// ever seen, and a ring of the last E interesting (errored, timed-out
// or diverged) requests. One short mutex-guarded insert per request;
// records are read-only after publication, so snapshots hand out
// shared pointers.
type traceBuffer struct {
	mu     sync.Mutex
	nextID int64

	recent []*TraceRecord // ring, nil-padded until full
	pos    int

	slow []*TraceRecord // min-heap ordered by DurUS

	errs   []*TraceRecord // ring
	errPos int
}

// traceSlowKeep and traceErrKeep bound the slowest-ever and the
// interesting retention classes; both outlive the recent ring.
const (
	traceSlowKeep = 32
	traceErrKeep  = 64
)

func newTraceBuffer(recent, slow, errs int) *traceBuffer {
	return &traceBuffer{
		recent: make([]*TraceRecord, recent),
		slow:   make([]*TraceRecord, 0, slow),
		errs:   make([]*TraceRecord, errs),
	}
}

// add assigns the record its ID and files it under every retention
// class it qualifies for.
func (b *traceBuffer) add(rec *TraceRecord) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	rec.ID = b.nextID

	if len(b.recent) > 0 {
		b.recent[b.pos] = rec
		b.pos = (b.pos + 1) % len(b.recent)
	}
	if rec.interesting() && len(b.errs) > 0 {
		b.errs[b.errPos] = rec
		b.errPos = (b.errPos + 1) % len(b.errs)
	}
	if cap(b.slow) > 0 {
		if len(b.slow) < cap(b.slow) {
			b.slow = append(b.slow, rec)
			b.siftUp(len(b.slow) - 1)
		} else if rec.DurUS > b.slow[0].DurUS {
			b.slow[0] = rec
			b.siftDown(0)
		}
	}
	return rec.ID
}

func (b *traceBuffer) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if b.slow[p].DurUS <= b.slow[i].DurUS {
			return
		}
		b.slow[p], b.slow[i] = b.slow[i], b.slow[p]
		i = p
	}
}

func (b *traceBuffer) siftDown(i int) {
	n := len(b.slow)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && b.slow[l].DurUS < b.slow[m].DurUS {
			m = l
		}
		if r < n && b.slow[r].DurUS < b.slow[m].DurUS {
			m = r
		}
		if m == i {
			return
		}
		b.slow[m], b.slow[i] = b.slow[i], b.slow[m]
		i = m
	}
}

// snapshot returns every retained record, deduplicated, newest first.
func (b *traceBuffer) snapshot() []*TraceRecord {
	b.mu.Lock()
	seen := make(map[int64]*TraceRecord, len(b.recent)+len(b.slow)+len(b.errs))
	collect := func(recs []*TraceRecord) {
		for _, r := range recs {
			if r != nil {
				seen[r.ID] = r
			}
		}
	}
	collect(b.recent)
	collect(b.slow)
	collect(b.errs)
	b.mu.Unlock()

	out := make([]*TraceRecord, 0, len(seen))
	for _, r := range seen {
		out = append(out, r)
	}
	// Newest first: IDs are the arrival order.
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// get returns the retained record with the given ID, or nil.
func (b *traceBuffer) get(id int64) *TraceRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, recs := range [][]*TraceRecord{b.recent, b.slow, b.errs} {
		for _, r := range recs {
			if r != nil && r.ID == id {
				return r
			}
		}
	}
	return nil
}
