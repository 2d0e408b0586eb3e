// Package par fans independent work items out over a bounded number
// of goroutines. It is the module's one fan-out primitive: the remap
// restarts, every branch-and-bound epoch of the ILP and joint solvers,
// and the experiment grids all run on For.
//
// Items are handed out in ascending index order from one shared
// counter, so when a caller stops the loop at some index, every lower
// index has already been handed out and runs to completion. Callers
// whose per-item results are pure functions of the item, written to
// per-index slots and reduced in index order afterwards, therefore get
// the same answer at any worker count; only which goroutine ran an
// item changes.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(w, i) for the indices i in [0, n), each at most once,
// on up to workers goroutines, and returns when every call has
// returned. w in [0, workers) names the goroutine making the call, so
// fn may keep per-worker scratch state in a slice indexed by w: no two
// concurrent calls share a w.
//
// Indices are handed out in ascending order. Once any call returns
// false no further index is handed out; calls already running finish.
// When workers <= 1 or n <= 1 every call runs inline on the caller's
// goroutine and nothing is spawned; otherwise the caller's goroutine
// acts as worker 0.
//
// A panic in fn stops the handing out of indices and, once the other
// workers have returned, is raised again on the calling goroutine with
// the same value, so a recover in the caller sees it; the stack of the
// original panic is not preserved.
func For(workers, n int, fn func(w, i int) bool) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if !fn(0, i) {
				return
			}
		}
		return
	}
	l := &loop{n: n, fn: fn}
	l.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go l.spawned(w)
	}
	l.run(0)
	l.wg.Wait()
	if l.panicked {
		panic(l.panicVal)
	}
}

// loop is the state one parallel For shares between its workers, kept
// in one object so a call pays one allocation for it.
type loop struct {
	n    int
	fn   func(w, i int) bool
	next atomic.Int64 // the next index to hand out
	stop atomic.Bool
	wg   sync.WaitGroup

	mu       sync.Mutex
	panicked bool
	panicVal any
}

func (l *loop) spawned(w int) {
	defer l.wg.Done()
	l.run(w)
}

// run is one worker's claim loop. It recovers a panic in fn, records
// the first one and stops the loop; For re-raises it.
func (l *loop) run(w int) {
	defer func() {
		if p := recover(); p != nil {
			l.stop.Store(true)
			l.mu.Lock()
			if !l.panicked {
				l.panicked, l.panicVal = true, p
			}
			l.mu.Unlock()
		}
	}()
	for !l.stop.Load() {
		i := int(l.next.Add(1) - 1)
		if i >= l.n {
			return
		}
		if !l.fn(w, i) {
			l.stop.Store(true)
			return
		}
	}
}

// Map calls fn(i) for i in [0, n) on up to workers goroutines
// (workers <= 0: GOMAXPROCS) and returns the error of the lowest index
// whose call failed, or nil. After a failure no further index is
// started. Indices are handed out in ascending order and every started
// call finishes, so each index below a failing one has run and the
// returned error does not depend on the worker count. Panics propagate
// as in For.
func Map(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	For(workers, n, func(_, i int) bool {
		errs[i] = fn(i)
		return errs[i] == nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
