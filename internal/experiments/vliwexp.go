package experiments

import (
	"fmt"

	"diffra/internal/modsched"
	"diffra/internal/par"
	"diffra/internal/vliw"
	"diffra/internal/workloads"
)

// VLIWConfig parameterizes the §10.2 experiment.
type VLIWConfig struct {
	// Loops is the population size (paper: 1928).
	Loops int
	// Seed drives the deterministic loop generator.
	Seed int64
	// RegNs are the differential register counts swept (paper:
	// 40, 48, 56, 64; 32 is the no-differential baseline).
	RegNs []int
	// DiffN is fixed at the architected 32 (5-bit fields).
	DiffN int
	// Restarts bounds the kernel remapping search per loop.
	Restarts int
	// LoopTimeShare is the fraction of total execution time spent in
	// loops (paper: over 80%); the remainder is unaffected scalar code.
	LoopTimeShare float64
	// LoopCodeShare is the fraction of static code occupied by the
	// studied innermost loops, used to scale code growth to "all code".
	LoopCodeShare float64
	// Workers bounds concurrent loop compilations (0: GOMAXPROCS).
	// Per-loop results land in indexed slots and the reductions stay
	// sequential, so the report is identical at any worker count.
	Workers int
	// Joint additionally runs the combined scheduling × allocation
	// branch-and-bound (modsched.SolveJoint) on every optimized loop at
	// each RegN, warm-seeded with the phased result so it can never do
	// worse; the report gains joint columns next to the phased ones.
	Joint bool
	// JointMaxNodes caps each loop's joint search (0: SolveJoint's
	// default budget).
	JointMaxNodes int
}

// DefaultVLIW returns the paper's configuration.
func DefaultVLIW() VLIWConfig {
	return VLIWConfig{
		Loops:         workloads.SPECLoopCount,
		Seed:          42,
		RegNs:         []int{40, 48, 56, 64},
		DiffN:         32,
		Restarts:      40,
		LoopTimeShare: 0.8,
		LoopCodeShare: 0.3,
	}
}

// VLIWRow is one RegN configuration's aggregate (Tables 2 and 3).
type VLIWRow struct {
	RegN int
	// Speedups in percent over the RegN=32 baseline (Table 2).
	SpeedupOptimized, SpeedupAll, SpeedupOverall float64
	// Spills summed over optimized loops (Table 3 column 2).
	SpillsOptimized int
	// Code growth percentages (Table 3 columns 3–5).
	GrowthOptimized, GrowthAll, GrowthAllCode float64
	// SetLastRegs summed over optimized loops.
	SetLastRegs int

	// Joint-search aggregates over optimized loops (zero unless
	// Config.Joint): how many loops the combined search strictly
	// improved, its set_last_reg total next to the phased one above,
	// the optimized-loop speedup with joint schedules, and the total
	// branch-and-bound effort spent.
	JointImproved         int     `json:",omitempty"`
	JointSetLastRegs      int     `json:",omitempty"`
	JointSpeedupOptimized float64 `json:",omitempty"`
	JointNodes            int64   `json:",omitempty"`
}

// VLIWReport is the §10.2 experiment outcome.
type VLIWReport struct {
	Config VLIWConfig
	// BaselineSpills counts spills at RegN=32 over optimized loops.
	BaselineSpills int
	// Optimized is the number of loops needing more than 32 registers.
	Optimized int
	// OptimizedCycleShare is their share of loop execution time at the
	// baseline.
	OptimizedCycleShare float64
	Rows                []VLIWRow
}

type loopBaseline struct {
	loop      *modsched.Loop
	base      *modsched.Schedule
	optimized bool // MaxLive at unlimited registers exceeds 32
	ops       int  // static op count at the baseline schedule
}

// RunVLIW executes the software-pipelining experiment: every loop is
// modulo-scheduled at the 32-register baseline and, when its register
// demand exceeds 32, rescheduled at each differential RegN, counting
// spills, cycles (II * trip + fill) and set_last_reg instructions (the
// §8.1 differential-remapping cost, promoted outside the loop so it
// contributes code growth but not steady-state cycles).
func RunVLIW(cfg VLIWConfig) (*VLIWReport, error) {
	m := vliw.Default()
	loops := workloads.SPECLoops(cfg.Seed, cfg.Loops)
	rep := &VLIWReport{Config: cfg}

	// Baseline pass: every loop scheduled independently in parallel,
	// then a sequential reduce so the floating-point sums stay in loop
	// order (bit-identical reports at any worker count).
	bases := make([]loopBaseline, len(loops))
	err := par.Map(cfg.Workers, len(loops), func(i int) error {
		free, err := modsched.Compile(loops[i], m, 1<<30)
		if err != nil {
			return fmt.Errorf("loop %d (free): %w", i, err)
		}
		base, err := modsched.Compile(loops[i], m, m.ArchRegs)
		if err != nil {
			return fmt.Errorf("loop %d (base): %w", i, err)
		}
		bases[i] = loopBaseline{
			loop:      loops[i],
			base:      base,
			optimized: free.MaxLive > m.ArchRegs,
			ops:       len(base.Loop.Ops),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var totalBaseCycles, optBaseCycles float64
	for i := range bases {
		c := float64(bases[i].base.Cycles())
		totalBaseCycles += c
		if bases[i].optimized {
			optBaseCycles += c
			rep.Optimized++
			rep.BaselineSpills += bases[i].base.Spilled
		}
	}
	if totalBaseCycles > 0 {
		rep.OptimizedCycleShare = optBaseCycles / totalBaseCycles
	}

	// One reschedule per optimized loop per RegN; contributions land in
	// per-loop slots and reduce sequentially.
	type loopCell struct {
		spilled, sets, ops int
		cycles             float64
		// Joint-search results (Config.Joint only).
		jointSets     int
		jointCycles   float64
		jointImproved bool
		jointNodes    int
	}
	for _, regN := range cfg.RegNs {
		row := VLIWRow{RegN: regN}
		cells := make([]loopCell, len(bases))
		err := par.Map(cfg.Workers, len(bases), func(i int) error {
			b := &bases[i]
			if !b.optimized {
				return nil
			}
			if cfg.Joint {
				// SolveJoint runs the identical phased pipeline first, so
				// the phased columns stay bit-identical to a non-joint run.
				r, err := modsched.SolveJoint(b.loop, m, regN, cfg.DiffN, modsched.JointOptions{
					Restarts: cfg.Restarts, Seed: cfg.Seed, MaxNodes: cfg.JointMaxNodes,
				})
				if err != nil {
					return fmt.Errorf("loop %d regN %d: %w", i, regN, err)
				}
				cells[i] = loopCell{
					spilled:       r.Phased.Spilled,
					sets:          r.PhasedEnc,
					ops:           len(r.Phased.Loop.Ops) + r.PhasedEnc,
					cycles:        float64(r.PhasedCycles),
					jointSets:     r.Enc,
					jointCycles:   float64(r.Cycles),
					jointImproved: r.Improved,
					jointNodes:    r.Nodes,
				}
				return nil
			}
			s, err := modsched.Compile(b.loop, m, regN)
			if err != nil {
				return fmt.Errorf("loop %d regN %d: %w", i, regN, err)
			}
			regs := modsched.KernelRegs(s, regN)
			sets := modsched.EncodingCost(s, regs, regN, cfg.DiffN, cfg.Restarts, cfg.Seed)
			cells[i] = loopCell{
				spilled: s.Spilled,
				sets:    sets,
				ops:     len(s.Loop.Ops) + sets,
				cycles:  float64(s.Cycles()),
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var optCycles, allCycles, jointOptCycles float64
		var optOps, optBaseOps, allOps, allBaseOps int
		for i := range bases {
			b := &bases[i]
			if !b.optimized {
				// Differential encoding stays off (§8.2): identical
				// code and cycles.
				allCycles += float64(b.base.Cycles())
				allOps += b.ops
				allBaseOps += b.ops
				continue
			}
			row.SpillsOptimized += cells[i].spilled
			row.SetLastRegs += cells[i].sets
			optCycles += cells[i].cycles
			allCycles += cells[i].cycles
			optOps += cells[i].ops
			optBaseOps += b.ops
			allOps += cells[i].ops
			allBaseOps += b.ops
			if cfg.Joint {
				row.JointSetLastRegs += cells[i].jointSets
				jointOptCycles += cells[i].jointCycles
				row.JointNodes += int64(cells[i].jointNodes)
				if cells[i].jointImproved {
					row.JointImproved++
				}
			}
		}
		row.SpeedupOptimized = speedupPct(optBaseCycles, optCycles)
		if cfg.Joint {
			row.JointSpeedupOptimized = speedupPct(optBaseCycles, jointOptCycles)
		}
		row.SpeedupAll = speedupPct(totalBaseCycles, allCycles)
		// Overall time = loop time / share + fixed scalar remainder.
		scalar := totalBaseCycles * (1 - cfg.LoopTimeShare) / cfg.LoopTimeShare
		row.SpeedupOverall = speedupPct(totalBaseCycles+scalar, allCycles+scalar)
		row.GrowthOptimized = growthPct(optBaseOps, optOps)
		row.GrowthAll = growthPct(allBaseOps, allOps)
		// All code: loops are LoopCodeShare of the static binary.
		totalCode := float64(allBaseOps) / cfg.LoopCodeShare
		row.GrowthAllCode = 100 * float64(allOps-allBaseOps) / totalCode
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func speedupPct(base, now float64) float64 {
	if now == 0 {
		return 0
	}
	return (base/now - 1) * 100
}

func growthPct(base, now int) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(now-base) / float64(base)
}
