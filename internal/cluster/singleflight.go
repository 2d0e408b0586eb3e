package cluster

import (
	"context"
	"sync"
)

// flight is one in-progress deduplicated call. waiters counts callers
// currently blocked on done; when it reaches zero before completion
// the flight's context is cancelled so the backend request is not
// orphaned doing work nobody wants.
type flight struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	rep     reply // shared read-only by every waiter
}

// Group collapses concurrent calls with the same key into a single
// execution: the first caller becomes the leader and runs fn; callers
// arriving before the leader finishes block and share its result. This
// is the thundering-herd guard — N identical in-flight /compile
// requests through the router cost exactly one backend compile.
//
// Unlike x/sync/singleflight, the leader's fn runs under a context
// detached from the leader's own request (the leader may hang up while
// others still wait); the detached context is cancelled only when
// every waiter has gone.
type Group struct {
	mu      sync.Mutex
	flights map[string]*flight

	// Shared is a telemetry hook, called outside the lock for each
	// caller that joined an existing flight.
	Shared func()
}

// Do executes fn(key) once per set of concurrent callers with equal
// key, returning the shared reply. The bool result reports whether
// this caller shared another caller's flight (false for the leader).
//
// ctx governs only this caller's wait: if it expires, the caller gets
// a reply carrying ctx.Err() but the flight keeps running for the
// remaining waiters. fn receives a context that is cancelled when all
// waiters are gone.
func (g *Group) Do(ctx context.Context, key string, fn func(ctx context.Context) reply) (reply, bool) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	if f, ok := g.flights[key]; ok {
		f.waiters++
		g.mu.Unlock()
		if g.Shared != nil {
			g.Shared()
		}
		return g.wait(ctx, key, f, true)
	}

	// Leader: run fn detached from ctx's cancellation (but keeping its
	// values) so a leader hang-up cannot kill the flight under later
	// joiners. The flight dies when the last waiter leaves.
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	g.flights[key] = f
	g.mu.Unlock()

	go func() {
		rep := fn(fctx)
		g.mu.Lock()
		f.rep = rep
		delete(g.flights, key) // later callers start a fresh flight
		g.mu.Unlock()
		close(f.done)
		cancel()
	}()
	return g.wait(ctx, key, f, false)
}

// wait blocks until the flight completes or the caller's own context
// expires. A departing caller decrements waiters; the last one out
// cancels the flight.
func (g *Group) wait(ctx context.Context, key string, f *flight, shared bool) (reply, bool) {
	select {
	case <-f.done:
		g.mu.Lock()
		f.waiters--
		g.mu.Unlock()
		return f.rep, shared
	case <-ctx.Done():
		g.mu.Lock()
		f.waiters--
		abandoned := f.waiters == 0
		if abandoned {
			// Nobody is listening: kill the backend call and forget the
			// flight so the next caller starts fresh rather than joining
			// a cancelled one.
			select {
			case <-f.done:
				// fn already finished; its goroutine did the delete.
				abandoned = false
			default:
				if g.flights[key] == f {
					delete(g.flights, key)
				}
			}
		}
		g.mu.Unlock()
		if abandoned {
			f.cancel()
		}
		return reply{err: ctx.Err()}, shared
	}
}
