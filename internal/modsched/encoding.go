package modsched

import (
	"sort"

	"diffra/internal/adjacency"
	"diffra/internal/remap"
	"diffra/internal/vliw"
)

// KernelRegs assigns register numbers to the schedule's values by
// first-fit coloring of their (modulo-cyclic, MVE-expanded)
// lifetimes. The returned slice maps op index -> register (-1 for
// stores, which produce no value). regN bounds the register numbers;
// the schedule's MaxLive should not exceed regN (guaranteed by
// Compile's spill loop), but pathological circular-arc instances may
// overflow first-fit — those values wrap onto the least-used register,
// which only pessimizes the encoding-cost estimate, never correctness
// (this path models encoding cost, not allocation).
func KernelRegs(s *Schedule, regN int) []int {
	n := len(s.Loop.Ops)
	regOf := make([]int, n)
	for i := range regOf {
		regOf[i] = -1
	}
	// Per-value live rows (modulo II) with multiplicity folded in:
	// a value spanning r rows occupies those rows once per MVE copy —
	// for coloring we conservatively treat a value with lifetime >= II
	// as occupying every row.
	rows := make([][]bool, n)
	type vinfo struct{ id, start int }
	var vals []vinfo
	for def, op := range s.Loop.Ops {
		if op.Kind == vliw.KindStore {
			continue
		}
		start := s.Time[def]
		end := start + 1
		for to, o2 := range s.Loop.Ops {
			for _, d := range o2.Deps {
				if d.From == def {
					if t := s.Time[to] + s.II*d.Distance; t > end {
						end = t
					}
				}
			}
		}
		occ := make([]bool, s.II)
		for t := start; t < end && t-start < s.II; t++ {
			occ[((t%s.II)+s.II)%s.II] = true
		}
		if end-start >= s.II {
			for r := range occ {
				occ[r] = true
			}
		}
		rows[def] = occ
		vals = append(vals, vinfo{def, start})
	}
	sort.Slice(vals, func(i, j int) bool {
		if vals[i].start != vals[j].start {
			return vals[i].start < vals[j].start
		}
		return vals[i].id < vals[j].id
	})

	regRows := make([][]bool, regN)
	for r := range regRows {
		regRows[r] = make([]bool, s.II)
	}
	use := make([]int, regN)
	for _, v := range vals {
		placed := -1
		for r := 0; r < regN; r++ {
			ok := true
			for t, occ := range rows[v.id] {
				if occ && regRows[r][t] {
					ok = false
					break
				}
			}
			if ok {
				placed = r
				break
			}
		}
		if placed < 0 {
			// Overflow fallback: least-used register.
			placed = 0
			for r := 1; r < regN; r++ {
				if use[r] < use[placed] {
					placed = r
				}
			}
		}
		for t, occ := range rows[v.id] {
			if occ {
				regRows[placed][t] = true
			}
		}
		use[placed]++
		regOf[v.id] = placed
	}
	return regOf
}

// accessOrder returns one kernel iteration's register accesses as
// value op ids: VLIW rows in cycle order, operations within a row in
// index order, inputs before output — the nominal access order of §2
// lifted to wide issue. Stores produce no value and are skipped; their
// inputs still appear.
func accessOrder(l *Loop, time []int, ii int) []int {
	type slot struct{ row, id int }
	var slots []slot
	for i := range l.Ops {
		slots = append(slots, slot{((time[i] % ii) + ii) % ii, i})
	}
	sort.Slice(slots, func(a, b int) bool {
		if slots[a].row != slots[b].row {
			return slots[a].row < slots[b].row
		}
		return slots[a].id < slots[b].id
	})
	var seq []int
	for _, sl := range slots {
		for _, d := range l.Ops[sl.id].Deps {
			if l.Ops[d.From].Kind != vliw.KindStore {
				seq = append(seq, d.From)
			}
		}
		if l.Ops[sl.id].Kind != vliw.KindStore {
			seq = append(seq, sl.id)
		}
	}
	return seq
}

// AccessSequence maps accessOrder through a register assignment,
// dropping values the assignment skipped (regOf < 0).
func AccessSequence(s *Schedule, regOf []int) []int {
	ids := accessOrder(s.Loop, s.Time, s.II)
	seq := make([]int, 0, len(ids))
	for _, id := range ids {
		if r := regOf[id]; r >= 0 {
			seq = append(seq, r)
		}
	}
	return seq
}

// EncodingCost applies differential remapping (§5, the approach §8.1
// prescribes for software-pipelined loops: "we propose to apply
// differential remapping only") to the kernel's access sequence and
// returns the number of set_last_reg instructions needed. The kernel
// repeats, so the sequence wraps: the last access is adjacent to the
// first. Sets are promoted before the loop with delay numbers (§8.1),
// so they cost code size, not steady-state cycles; per-iteration
// repairs are needed only for differences that remapping leaves out of
// range, and those are what this count reports.
func EncodingCost(s *Schedule, regOf []int, regN, diffN, restarts int, seed int64) int {
	seq := AccessSequence(s, regOf)
	if len(seq) < 2 {
		return 0
	}
	edges := make([]adjacency.Edge, 0, len(seq))
	for i := 1; i < len(seq); i++ {
		edges = append(edges, adjacency.Edge{From: int32(seq[i-1]), To: int32(seq[i]), W: 1})
	}
	// Wraparound: the next iteration follows the last access.
	edges = append(edges, adjacency.Edge{From: int32(seq[len(seq)-1]), To: int32(seq[0]), W: 1})
	// One worker: RunVLIW and SolveJoint already run one EncodingCost
	// per loop on every core.
	res := remap.Greedy(adjacency.FromEdges(regN, edges), remap.Options{
		RegN: regN, DiffN: diffN, Restarts: restarts, Seed: seed, Workers: 1,
	})
	// Count violated adjacent pairs under the best permutation.
	cost := 0
	prev := res.Perm[seq[0]]
	for i := 1; i < len(seq); i++ {
		cur := res.Perm[seq[i]]
		if !adjacency.Satisfied(prev, cur, regN, diffN) {
			cost++
		}
		prev = cur
	}
	if !adjacency.Satisfied(res.Perm[seq[len(seq)-1]], res.Perm[seq[0]], regN, diffN) {
		cost++
	}
	return cost
}
