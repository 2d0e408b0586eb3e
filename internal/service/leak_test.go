package service

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// leakSrc is a two-level loop nest whose inner loop needs more than six
// registers, so the spill lanes decide loop and whole-range spills.
// %s is the function name.
const leakSrc = `
func %s(v0, v1) {
entry:
  v2 = li 0
  v3 = li 7
  jmp outer
outer:
  blt v2, v0 -> obody, done
obody:
  v3 = add v3, v2
  v3 = add v3, v0
  v4 = li 0
  v5 = li 1
  jmp inner
inner:
  blt v4, v1 -> ibody, iexit
ibody:
  v6 = add v5, v4
  v5 = add v5, v6
  v6 = add v6, v5
  v5 = add v5, v6
  v7 = li 1
  v4 = add v4, v7
  jmp inner
iexit:
  v3 = add v3, v5
  v8 = li 1
  v2 = add v2, v8
  jmp outer
done:
  ret v3
}
`

// liveHeapObjects is the number of live heap objects after a full
// collection.
func liveHeapObjects() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapObjects
}

// TestMissRequestsRetainNothing is the service's leak guard. Every
// request misses the cache under a new function name, round-robin over
// the four lanes perfbench's miss-spill workload runs (irc, ssa, ospill
// and coalesce). A warm-up of leakRequests requests fills the result
// cache and the trace ring, both sized below that; serving as many
// again must leave the number of live heap objects within 5% of what
// the warm server held. A leak of one object per request would exceed
// that bound more than tenfold. Between runs the count moves by about
// a third of the bound, in both directions.
func TestMissRequestsRetainNothing(t *testing.T) {
	const leakRequests = 3000
	s := newTestServer(t, Config{Workers: 1, CacheEntries: 64, TraceBuffer: 64})
	lanes := []Request{
		{Scheme: "baseline", Alloc: "irc", RegN: 6},
		{Scheme: "baseline", Alloc: "ssa", RegN: 6},
		{Scheme: "ospill", Alloc: "ospill", RegN: 6},
		{Scheme: "coalesce", Alloc: "ospill", RegN: 8},
	}
	next := 0
	serve := func(n int) {
		for i := 0; i < n; i++ {
			req := lanes[next%len(lanes)]
			req.IR = fmt.Sprintf(leakSrc, fmt.Sprintf("f%d", next))
			next++
			if resp := s.Compile(context.Background(), req); resp.Error != "" || resp.Cached {
				t.Fatalf("request %d (%s/%s): cached=%v error=%q", next, req.Scheme, req.Alloc, resp.Cached, resp.Error)
			}
		}
	}
	serve(leakRequests)
	warm := liveHeapObjects()
	serve(leakRequests)
	after := liveHeapObjects()
	runtime.KeepAlive(s) // the server must stay reachable while counting
	t.Logf("live heap objects: %d warm, %d after %d more requests", warm, after, leakRequests)
	bound := warm / 20
	if after > warm+bound {
		t.Errorf("live heap objects grew from %d to %d over %d requests (bound +%d): the service retains memory per request",
			warm, after, leakRequests, bound)
	}
	if leakRequests < 10*bound {
		t.Errorf("%d requests cannot show a one-object-per-request leak ten times over a bound of %d objects", leakRequests, bound)
	}
}
