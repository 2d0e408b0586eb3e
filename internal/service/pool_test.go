package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	if p.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", p.Workers())
	}
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Do(context.Background(), func() {
				n := cur.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				cur.Add(-1)
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if peak.Load() > 3 {
		t.Fatalf("observed %d concurrent tasks, bound is 3", peak.Load())
	}
}

func TestPoolDoHonoursContextWhileQueued(t *testing.T) {
	p := NewPool(1)
	release := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), func() {
		close(started)
		<-release
	})
	<-started
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := p.Do(ctx, func() { t.Error("fn ran despite expired context") })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}
