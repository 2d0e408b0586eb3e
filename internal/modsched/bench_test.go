package modsched_test

import (
	"testing"

	"diffra/internal/modsched"
	"diffra/internal/vliw"
	"diffra/internal/workloads"
)

// The hard lanes run at a tight register geometry on the first loop of
// the seed-42 population sample whose joint search exhausts
// benchNodes, so the branch-and-bound burns its whole budget on one
// connected instance, the case component decomposition cannot split.
const (
	benchRegN  = 16
	benchDiffN = 4
	benchNodes = 30000
)

func hardLoop(b *testing.B) *modsched.Loop {
	m := vliw.Default()
	for _, l := range workloads.SPECLoops(42, 300) {
		r, err := modsched.SolveJoint(l, m, benchRegN, benchDiffN, modsched.JointOptions{Restarts: 40, Seed: 42, MaxNodes: benchNodes})
		if err == nil && !r.Skipped && r.Nodes >= benchNodes {
			return l
		}
	}
	b.Fatal("no hard joint instance in the sample")
	return nil
}

func BenchmarkModschedPhased(b *testing.B) {
	l, m := hardLoop(b), vliw.Default()
	b.Run("hard", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := modsched.Compile(l, m, benchRegN)
			if err != nil {
				b.Fatal(err)
			}
			regs := modsched.KernelRegs(s, benchRegN)
			modsched.EncodingCost(s, regs, benchRegN, benchDiffN, 40, 42)
		}
	})
}

func BenchmarkModschedJoint(b *testing.B) {
	l, m := hardLoop(b), vliw.Default()
	b.Run("hard", func(b *testing.B) {
		b.ReportAllocs()
		nodes := 0
		for i := 0; i < b.N; i++ {
			r, err := modsched.SolveJoint(l, m, benchRegN, benchDiffN, modsched.JointOptions{
				Restarts: 40, Seed: 42, MaxNodes: benchNodes, Workers: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			nodes += r.Nodes
		}
		b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
	})
}
