package par

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForRunsEveryIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 3, 8} {
		counts := make([]atomic.Int32, n)
		var maxW atomic.Int32
		For(workers, n, func(w, i int) bool {
			counts[i].Add(1)
			for {
				old := maxW.Load()
				if int32(w) <= old || maxW.CompareAndSwap(old, int32(w)) {
					break
				}
			}
			return true
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		if int(maxW.Load()) >= workers {
			t.Fatalf("workers=%d: saw worker id %d", workers, maxW.Load())
		}
	}
}

func TestForSerialStopsAfterFalse(t *testing.T) {
	var ran []int
	For(1, 100, func(w, i int) bool {
		if w != 0 {
			t.Errorf("serial call got worker %d", w)
		}
		ran = append(ran, i)
		return i != 7
	})
	if len(ran) != 8 || ran[7] != 7 {
		t.Fatalf("ran %v, want 0..7", ran)
	}
}

// TestForStopRunsEveryLowerIndex: at any worker count, stopping at an
// index has already handed out every lower one, and each of those runs.
func TestForStopRunsEveryLowerIndex(t *testing.T) {
	const n, stopAt = 500, 123
	for _, workers := range []int{2, 3, 8} {
		ran := make([]atomic.Bool, n)
		For(workers, n, func(_, i int) bool {
			ran[i].Store(true)
			return i != stopAt
		})
		for i := 0; i <= stopAt; i++ {
			if !ran[i].Load() {
				t.Fatalf("workers=%d: index %d below the stop never ran", workers, i)
			}
		}
	}
}

func TestForPanicReachesCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		For(4, 1000, func(_, i int) bool {
			if i == 37 {
				panic("boom")
			}
			time.Sleep(10 * time.Microsecond)
			return true
		})
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want boom", got)
	}
	waitGoroutines(t, before)
}

// waitGoroutines waits for the goroutine count to fall back to want:
// a finished goroutine leaves the count shortly after it signals.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

func TestMapSerialLowestErrorWins(t *testing.T) {
	e3, e5 := errors.New("three"), errors.New("five")
	var ran []int
	err := Map(1, 100, func(i int) error {
		ran = append(ran, i)
		switch i {
		case 3:
			return e3
		case 5:
			return e5
		}
		return nil
	})
	if !errors.Is(err, e3) {
		t.Fatalf("err = %v, want three", err)
	}
	if len(ran) != 4 {
		t.Fatalf("ran %v after the first failure", ran)
	}
}

// TestMapFirstErrorWins: with several workers a failure still stops
// the remaining work, and the error returned is the lowest failing
// index's even when a higher index fails too.
func TestMapFirstErrorWins(t *testing.T) {
	boom, late := errors.New("boom"), errors.New("late")
	for _, workers := range []int{2, 4} {
		var ran atomic.Int64
		reached := make(chan struct{})
		err := Map(workers, 100, func(i int) error {
			ran.Add(1)
			switch {
			case i == 5:
				close(reached)
				return boom
			case i == 6:
				<-reached
				return late
			case i > 6:
				<-reached
				time.Sleep(time.Millisecond)
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if ran.Load() >= 100 {
			t.Fatalf("workers=%d: error did not short-circuit remaining work", workers)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		if err := Map(workers, 0, func(int) error {
			t.Error("fn called for n=0")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}
