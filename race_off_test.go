//go:build !race

package diffra_test

// raceEnabled reports whether the race detector is compiled in. The
// allocation budgets of paths that reuse memory through a sync.Pool
// skip under it: the detector makes the pool drop items on purpose, so
// such a path allocates what it would otherwise reuse. CI's alloc
// budget guard runs them without -race.
const raceEnabled = false
