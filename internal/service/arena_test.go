package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestArenaReuseAcrossConcurrentCompiles hammers the per-worker
// scratch-arena free list: many goroutines, more than the server has
// slots, each compiling a distinct function (distinct cache keys, so
// every request reaches the backend) under different schemes and
// register counts. Run under -race this proves two things at once:
// no two in-flight compiles ever share an arena, and a recycled arena
// (reset between requests) never leaks one request's state into the
// next — every response must equal the same request compiled cold.
func TestArenaReuseAcrossConcurrentCompiles(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 4, CacheEntries: 1})
	cold := newTestServer(t, Config{Workers: 1, CacheEntries: 1})

	mkReq := func(i int) Request {
		src := fmt.Sprintf(`func f%d(v0, v1) {
entry:
  v2 = li %d
  v3 = mov v0
  v4 = add v3, v2
  v5 = mul v4, v1
  v6 = add v5, v3
  ret v6
}
`, i, i)
		scheme := []string{"baseline", "select", "remapping"}[i%3]
		return Request{IR: src, Scheme: scheme, RegN: 4 + i%4, Restarts: 4}
	}

	const n = 48
	got := make([]Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = srv.Compile(context.Background(), mkReq(i))
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if got[i].Error != "" {
			t.Fatalf("request %d failed: %s", i, got[i].Error)
		}
		want := cold.Compile(context.Background(), mkReq(i))
		if want.Error != "" {
			t.Fatalf("cold request %d failed: %s", i, want.Error)
		}
		got[i].Cached, want.Cached = false, false
		if got[i] != want {
			t.Errorf("request %d: warm/concurrent response diverges from cold:\nwarm: %+v\ncold: %+v", i, got[i], want)
		}
	}
}
