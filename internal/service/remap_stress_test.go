package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// remapIR builds a straight-line function with a long register access
// chain — enough live ranges that the remapping post-pass has real
// permutation work to do.
func remapIR(name string, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(v0, v1) {\nentry:\n", name)
	prev, cur := 0, 1
	next := 2
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  v%d = add v%d, v%d\n", next, prev, cur)
		prev, cur = cur, next
		next++
	}
	fmt.Fprintf(&b, "  ret v%d\n}\n", cur)
	return b.String()
}

// TestRemapStressThroughPool hammers the server's worker slots with
// concurrent remapping-scheme compiles while each compile runs its own
// multi-worker remap search — the nested-parallelism path the race
// detector must see clean. The cache is disabled so every request
// compiles, and every response for the same source must be identical
// (the parallel search is deterministic).
func TestRemapStressThroughPool(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:      4,
		CacheEntries: -1, // no cache: all requests exercise the compiler
		RemapWorkers: 3,
	})
	sources := []string{
		remapIR("chain20", 20),
		remapIR("chain33", 33),
		slowIR(2, 4),
	}
	const perSource = 6
	responses := make([][]Response, len(sources))
	for i := range responses {
		responses[i] = make([]Response, perSource)
	}
	var wg sync.WaitGroup
	for si := range sources {
		for k := 0; k < perSource; k++ {
			wg.Add(1)
			go func(si, k int) {
				defer wg.Done()
				responses[si][k] = s.Compile(context.Background(), Request{
					IR:       sources[si],
					Scheme:   "remapping",
					RegN:     12,
					DiffN:    4,
					Restarts: 60,
				})
			}(si, k)
		}
	}
	wg.Wait()
	for si := range sources {
		first := responses[si][0]
		if first.Error != "" {
			t.Fatalf("source %d: compile failed: %s", si, first.Error)
		}
		if first.Cached {
			t.Fatalf("source %d: cache should be disabled", si)
		}
		for k := 1; k < perSource; k++ {
			got := responses[si][k]
			if got.Error != "" {
				t.Fatalf("source %d request %d: %s", si, k, got.Error)
			}
			if got.SetLastRegs != first.SetLastRegs || got.Instrs != first.Instrs || got.SpillInstrs != first.SpillInstrs {
				t.Fatalf("source %d: divergent responses under concurrency: %+v vs %+v", si, got, first)
			}
		}
	}
}
