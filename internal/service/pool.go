package service

import (
	"context"
	"runtime"
)

// Pool is the semaphore that admits compiles: at most Workers() tasks
// execute at once, across every entry point that shares the pool
// (single HTTP compiles and batch requests). Work always runs on the
// submitting goroutine; the pool spawns nothing.
type Pool struct {
	sem chan struct{}
}

// NewPool builds a pool; workers <= 0 sizes it to GOMAXPROCS, the
// number of compilations that can make progress simultaneously.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers reports the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// Do acquires a slot, runs fn on the calling goroutine, and releases
// the slot. If ctx is done before a slot frees, fn never runs and the
// context's error is returned; fn itself is responsible for honouring
// ctx once running.
func (p *Pool) Do(ctx context.Context, fn func()) error {
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-p.sem }()
	fn()
	return nil
}
