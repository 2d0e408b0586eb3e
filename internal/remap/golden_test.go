package remap_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"diffra/internal/adjacency"
	"diffra/internal/diffsel"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/remap"
	"diffra/internal/telemetry"
	"diffra/internal/workloads"
)

// TestRemapGolden pins the greedy search's complete observable output
// — Perm, the bits of Cost, Evaluated and the trajectory attribute —
// on the ten §8 kernels, each allocated by IRC as the facade does for
// the remapping scheme (plain) and the select scheme (differential
// select picker), at five register-file geometries with the paper's
// 1000 restarts on one worker. Every weight these graphs carry is a
// multiple of 1/2, so the search is exact; a failure means the search
// visits different permutations, not just that it got slower or
// faster.
func TestRemapGolden(t *testing.T) {
	geometries := []struct{ regN, diffN int }{{12, 8}, {12, 4}, {8, 4}, {16, 8}, {24, 8}}
	h := fnv.New64a()
	for _, k := range workloads.Kernels() {
		for _, geo := range geometries {
			for _, scheme := range []string{"remapping", "select"} {
				io := irc.Options{K: geo.regN}
				if scheme == "select" {
					io.PickerFactory = diffsel.NewFactory(diffsel.Params{RegN: geo.regN, DiffN: geo.diffN})
				}
				out, asn, err := irc.Allocate(k.F, io)
				if err != nil {
					t.Fatalf("%s/%s %d/%d: %v", k.Name, scheme, geo.regN, geo.diffN, err)
				}
				g := adjacency.BuildReg(out, func(r ir.Reg) int { return asn.Color[r] }, geo.regN)
				tr := telemetry.New(&telemetry.CollectSink{})
				span := tr.Start("remap")
				res := remap.Auto(g, remap.Options{
					RegN: geo.regN, DiffN: geo.diffN, Restarts: 1000, Seed: 1, Workers: 1, Trace: span,
				})
				span.End()
				traj, _ := span.Attr("trajectory").([]float64)
				trajBits := make([]uint64, len(traj))
				for i, c := range traj {
					trajBits[i] = math.Float64bits(c)
				}
				fmt.Fprintln(h, k.Name, scheme, geo.regN, geo.diffN, res.Perm,
					math.Float64bits(res.Cost), res.Evaluated, trajBits)
			}
		}
	}
	if got, want := h.Sum64(), uint64(0xd7f9011310c07b24); got != want {
		t.Errorf("remap hash %#x, golden %#x", got, want)
	}
}
