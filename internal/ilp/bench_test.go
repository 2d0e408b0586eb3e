package ilp

import "testing"

// BenchmarkILPSolve measures the serial decomposed solver on the two
// instance families: hard-disjoint, where decomposition collapses the
// search, and hard-overlap, one connected component, where the win is
// per-node efficiency. Nodes/sec is reported so throughput regressions
// are visible separately from structural wins.
func BenchmarkILPSolve(b *testing.B) {
	for _, fam := range []struct {
		name string
		p    Problem
	}{
		{"disjoint", HardDisjoint(8, 12, 6)},
		{"overlap", HardOverlap(8, 12, 6)},
	} {
		b.Run(fam.name, func(b *testing.B) {
			b.ReportAllocs()
			nodes := 0
			for i := 0; i < b.N; i++ {
				nodes += Solve(fam.p, Options{MaxNodes: 50000, Workers: 1}).Nodes
			}
			b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}
