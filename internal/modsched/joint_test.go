package modsched

import (
	"math/rand"
	"testing"

	"diffra/internal/adjacency"
	"diffra/internal/ilp"
	"diffra/internal/vliw"
)

// checkJoint validates the winning joint solution against the model:
// dependence windows, modulo resource rows, register conflict freedom,
// and that Enc matches a from-scratch recount of the access sequence.
func checkJoint(t *testing.T, l *Loop, m vliw.Machine, regN, diffN int, r *JointResult) {
	t.Helper()
	work := r.Phased.Loop
	s := &Schedule{Loop: work, Machine: m, II: r.II, Time: r.Time}
	checkSchedule(t, s)
	if got := jointEncRecount(work, m, r.Time, r.II, r.RegOf, regN, diffN); r.Improved && got != r.Enc {
		t.Fatalf("Enc %d does not recount: %d", r.Enc, got)
	}
	if r.Improved {
		// Conflict-freedom of the direct assignment under the modulo-row
		// interference model.
		rows := map[[2]int]int{} // (reg, row) -> owner op
		for def, op := range work.Ops {
			if op.Kind == vliw.KindStore {
				continue
			}
			reg := r.RegOf[def]
			if reg < 0 || reg >= regN {
				t.Fatalf("value %d register %d out of range", def, reg)
			}
			start := r.Time[def]
			end := start + 1
			for to, o2 := range work.Ops {
				for _, d := range o2.Deps {
					if d.From == def {
						if v := r.Time[to] + r.II*d.Distance; v > end {
							end = v
						}
					}
				}
			}
			span := end - start
			if span > r.II {
				span = r.II
			}
			for k := 0; k < span; k++ {
				row := (((start + k) % r.II) + r.II) % r.II
				key := [2]int{reg, row}
				if other, clash := rows[key]; clash {
					t.Fatalf("values %d and %d share reg %d row %d", other, def, reg, row)
				}
				rows[key] = def
			}
		}
	}
}

// jointEncRecount recounts set_last_reg violations of a direct
// assignment from scratch (the reference for the solver's incremental
// count).
func jointEncRecount(l *Loop, m vliw.Machine, time []int, ii int, regOf []int, regN, diffN int) int {
	ids := accessOrder(l, time, ii)
	if len(ids) < 2 {
		return 0
	}
	cost := 0
	for i := range ids {
		a, b := regOf[ids[i]], regOf[ids[(i+1)%len(ids)]]
		if !adjacency.Satisfied(a, b, regN, diffN) {
			cost++
		}
	}
	return cost
}

// TestJointNeverWorse: the warm phased incumbent means the joint result
// can never be worse than the phased pipeline on (cycles, enc) — the
// acceptance guarantee, checked across loop families and register
// geometries.
func TestJointNeverWorse(t *testing.T) {
	m := vliw.Default()
	rng := rand.New(rand.NewSource(11))
	loops := []*Loop{
		chainLoop(6, false), chainLoop(6, true),
		wideLoop(8, vliw.KindAdd), highPressureLoop(10),
	}
	for trial := 0; trial < 12; trial++ {
		loops = append(loops, randomLoop(rng, 4+rng.Intn(12)))
	}
	for li, l := range loops {
		for _, geo := range [][2]int{{8, 4}, {16, 8}, {32, 32}} {
			regN, diffN := geo[0], geo[1]
			r, err := SolveJoint(l, m, regN, diffN, JointOptions{Restarts: 4, Seed: 7, MaxNodes: 30000})
			if err != nil {
				t.Fatalf("loop %d regN %d: %v", li, regN, err)
			}
			if r.Cycles > r.PhasedCycles ||
				(r.Cycles == r.PhasedCycles && r.Enc > r.PhasedEnc) {
				t.Fatalf("loop %d regN %d: joint (%d,%d) worse than phased (%d,%d)",
					li, regN, r.Cycles, r.Enc, r.PhasedCycles, r.PhasedEnc)
			}
			checkJoint(t, l, m, regN, diffN, r)
		}
	}
}

// bruteForceJoint exhaustively enumerates the joint decision space —
// the same windowed space SolveJoint searches, with no bounds and no
// incumbent — and returns the minimum scalarized cost (or the phased
// cost if the space holds nothing better).
func bruteForceJoint(l *Loop, m vliw.Machine, regN, diffN, mii, maxII int, phasedCost int64) int64 {
	cp := criticalPathOf(l, m)
	st := newJointState(l, m, regN, diffN, mii, maxII, cp, 0)
	best := phasedCost
	var rec func(level int)
	rec = func(level int) {
		n := len(l.Ops)
		if level == st.totalLevels() {
			cost := int64(st.ii*l.Trip+st.fill)*jointScale + int64(st.enc)
			if cost < best {
				best = cost
			}
			return
		}
		// Enumerate via the state's own candidate generator so the test
		// covers the production windows, but recurse WITHOUT pruning.
		cands := append([]int32(nil), st.enumerate(level)...)
		for _, d := range cands {
			switch {
			case level == 0:
				st.setII(int(d))
				rec(level + 1)
			case level <= n:
				op := st.order[level-1]
				oldFill := st.fill
				st.placeOp(op, int(d))
				rec(level + 1)
				st.unplaceOp(op)
				st.fill = oldFill
				st.regReady = false
			default:
				v := st.vals[level-n-1]
				oldEnc := st.enc
				st.assignReg(v, int(d))
				rec(level + 1)
				st.unassignReg(v)
				st.enc = oldEnc
			}
		}
	}
	for i := range st.regOf {
		st.regOf[i] = -1
	}
	rec(0)
	return best
}

// TestJointMatchesExhaustive: on small loops (n <= 6, II <= 4) the
// branch-and-bound must land exactly on the exhaustive optimum of the
// windowed decision space.
func TestJointMatchesExhaustive(t *testing.T) {
	m := vliw.Default()
	rng := rand.New(rand.NewSource(23))
	var loops []*Loop
	loops = append(loops, chainLoop(4, false), chainLoop(5, true), wideLoop(5, vliw.KindAdd))
	for trial := 0; trial < 10; trial++ {
		loops = append(loops, randomLoop(rng, 3+rng.Intn(4)))
	}
	for li, l := range loops {
		for _, geo := range [][2]int{{6, 2}, {8, 4}} {
			regN, diffN := geo[0], geo[1]
			r, err := SolveJoint(l, m, regN, diffN, JointOptions{Restarts: 4, Seed: 3, MaxNodes: 4_000_000})
			if err != nil {
				t.Fatalf("loop %d: %v", li, err)
			}
			if !r.Optimal {
				t.Fatalf("loop %d regN %d: budget too small for exhaustive comparison (%d nodes)", li, regN, r.Nodes)
			}
			work := r.Phased.Loop
			if r.Phased.II > 4 || len(work.Ops) > 8 {
				continue // brute force would blow up; window the test population
			}
			want := bruteForceJoint(work, m, regN, diffN, MII(work, m), r.Phased.II, int64(r.PhasedCycles)*jointScale+int64(r.PhasedEnc))
			if r.Cost() != want {
				t.Fatalf("loop %d regN %d: joint cost %d != exhaustive %d", li, regN, r.Cost(), want)
			}
		}
	}
}

// TestJointParallelMatchesSerial is the determinism contract for the
// joint solver on the epoch engine: full-struct equality at
// workers 1/2/8, including node and prune counts.
func TestJointParallelMatchesSerial(t *testing.T) {
	m := vliw.Default()
	rng := rand.New(rand.NewSource(31))
	loops := []*Loop{highPressureLoop(8), chainLoop(7, true)}
	for trial := 0; trial < 6; trial++ {
		loops = append(loops, randomLoop(rng, 5+rng.Intn(9)))
	}
	for li, l := range loops {
		serial, err := SolveJoint(l, m, 12, 4, JointOptions{Restarts: 4, Seed: 5, MaxNodes: 30000, Workers: 1})
		if err != nil {
			t.Fatalf("loop %d: %v", li, err)
		}
		for _, workers := range []int{2, 8} {
			got, err := SolveJoint(l, m, 12, 4, JointOptions{Restarts: 4, Seed: 5, MaxNodes: 30000, Workers: workers})
			if err != nil {
				t.Fatalf("loop %d workers %d: %v", li, workers, err)
			}
			if got.II != serial.II || got.Enc != serial.Enc || got.Cycles != serial.Cycles ||
				got.Improved != serial.Improved || got.Optimal != serial.Optimal ||
				got.Nodes != serial.Nodes || got.Pruned != serial.Pruned {
				t.Fatalf("loop %d workers=%d: %+v != serial %+v", li, workers, got, serial)
			}
			for i := range serial.Time {
				if got.Time[i] != serial.Time[i] || got.RegOf[i] != serial.RegOf[i] {
					t.Fatalf("loop %d workers=%d: schedule/assignment differ at op %d", li, workers, i)
				}
			}
		}
	}
}

// TestJointImprovesConstructedLoop: a loop engineered so the phased
// pipeline pays set_last_reg repairs that joint assignment avoids —
// the existence proof behind the population-level aggregate claim.
func TestJointImprovesConstructedLoop(t *testing.T) {
	m := vliw.Default()
	rng := rand.New(rand.NewSource(41))
	improved := false
	for trial := 0; trial < 40 && !improved; trial++ {
		l := randomLoop(rng, 6+rng.Intn(8))
		// Tight geometry: few registers, narrow differential window.
		r, err := SolveJoint(l, m, 8, 2, JointOptions{Restarts: 2, Seed: 1, MaxNodes: 200000})
		if err != nil {
			t.Fatal(err)
		}
		if r.Improved {
			improved = true
			if r.Cost() >= int64(r.PhasedCycles)*jointScale+int64(r.PhasedEnc) {
				t.Fatalf("Improved set but cost not better: %+v", r)
			}
			checkJoint(t, l, m, 8, 2, r)
		}
	}
	if !improved {
		t.Fatal("joint search never improved on the phased pipeline across 40 tight-geometry loops")
	}
}

// TestJointStatsFlow: the epoch engine's telemetry surface reaches the
// caller through JointOptions.Stats.
func TestJointStatsFlow(t *testing.T) {
	m := vliw.Default()
	var stats ilp.StealStats
	_, err := SolveJoint(highPressureLoop(10), m, 10, 4, JointOptions{Restarts: 2, Seed: 1, MaxNodes: 30000, Workers: 2, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epochs == 0 || stats.Items == 0 {
		t.Fatalf("no scheduler telemetry recorded: %+v", stats)
	}
}
