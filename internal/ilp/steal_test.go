package ilp

import (
	"runtime"
	"testing"
	"time"
)

// TestStealStatsDeterministicFields: every StealStats field (epoch
// count, scheduled items, bound broadcasts) is part of the
// deterministic schedule, so the whole struct must be identical at
// any worker count.
func TestStealStatsDeterministicFields(t *testing.T) {
	p := HardOverlap(8, 12, 6)
	var serial StealStats
	Solve(p, Options{MaxNodes: 50000, Workers: 1, Stats: &serial})
	if serial.Epochs < 2 || serial.Items < 2 {
		t.Fatalf("hard instance should suspend and re-split: %+v", serial)
	}
	for _, workers := range []int{2, 8} {
		var got StealStats
		Solve(p, Options{MaxNodes: 50000, Workers: workers, Stats: &got})
		if got != serial {
			t.Fatalf("workers=%d: stats %+v != serial %+v", workers, got, serial)
		}
	}
}

// TestRunStealWorkerPanicReachesCaller: a panic in Run on one item,
// with several workers, is raised again on the goroutine that called
// RunSteal once the other workers have stopped, so a recover there
// sees it and no worker goroutine outlives the call.
func TestRunStealWorkerPanicReachesCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	var got any
	func() {
		defer func() { got = recover() }()
		RunSteal(StealConfig[int, struct{}]{
			Groups:   1,
			GroupOf:  func(int) int { return 0 },
			Items:    items,
			Bound:    []float64{inf},
			MaxNodes: 1 << 30,
			Workers:  3,
			Run: func(_ int, it int, _ float64, _ int) ChunkOut[int, struct{}] {
				if it == 17 {
					panic("item 17")
				}
				return ChunkOut[int, struct{}]{Nodes: 1}
			},
		})
	}()
	if got != "item 17" {
		t.Fatalf("recovered %v, want the worker's panic", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panic, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

// TestStealStatsAccumulate: Stats sums across Solve calls rather than
// being reset, so one counter can aggregate a whole allocation run.
func TestStealStatsAccumulate(t *testing.T) {
	p := HardOverlap(6, 10, 5)
	var stats StealStats
	Solve(p, Options{Stats: &stats})
	once := stats
	Solve(p, Options{Stats: &stats})
	if stats.Epochs != 2*once.Epochs || stats.Items != 2*once.Items {
		t.Fatalf("stats did not accumulate: once %+v twice %+v", once, stats)
	}
}

// TestMaxNodesEnforcedExactly: admission control trims the last chunk,
// so the per-component node budget is a hard cap, not a soft target
// with per-item overshoot.
func TestMaxNodesEnforcedExactly(t *testing.T) {
	p := HardOverlap(8, 12, 6) // one component, needs >500k nodes
	for _, budget := range []int{1, 100, 5000} {
		sol := Solve(p, Options{MaxNodes: budget})
		if sol.Nodes > budget {
			t.Fatalf("budget %d exceeded: %d nodes", budget, sol.Nodes)
		}
		if sol.Optimal {
			t.Fatalf("budget %d cannot prove optimality on this instance", budget)
		}
		assertFeasible(t, p, sol.X)
	}
}

// TestBudgetPrefixMonotonic: a budget-limited solve explores a prefix
// of the full search, so it can never report a cost BELOW what the
// full search reached (that would mean the truncation changed the
// exploration order), and it always stays feasible.
func TestBudgetPrefixMonotonic(t *testing.T) {
	p := HardOverlap(8, 12, 6)
	full := Solve(p, Options{})
	for _, budget := range []int{100, 2000, 20000} {
		sol := Solve(p, Options{MaxNodes: budget})
		if sol.Cost < full.Cost {
			t.Fatalf("budget %d found cost %v below the %v a larger budget reached", budget, sol.Cost, full.Cost)
		}
		assertFeasible(t, p, sol.X)
	}
}
