// Package liveness computes live-variable information for the IR:
// per-block live-in/live-out sets by iterative backward dataflow, and
// spill-cost weights (definition/use counts weighted by loop depth).
// Every register allocator in this repository starts from this
// analysis.
package liveness

import (
	"diffra/internal/bitset"
	"diffra/internal/ir"
	"diffra/internal/scratch"
	"diffra/internal/telemetry"
)

// Info holds the results of liveness analysis for one function. An
// Info (and its sets, which may be arena-backed) belongs to one
// compile on one goroutine; its methods are not safe for concurrent
// use.
type Info struct {
	F *ir.Func
	// LiveIn[b] / LiveOut[b] index by ir.Block.Index.
	LiveIn  []*bitset.Set
	LiveOut []*bitset.Set
	// UEVar and VarKill per block (upward-exposed uses, kills).
	uevar []*bitset.Set
	kill  []*bitset.Set
	// tmp is the reusable walk set LiveAcross hands to its visitor.
	tmp *bitset.Set
}

// Compute runs the analysis.
func Compute(f *ir.Func) *Info {
	return ComputeScratch(f, nil, nil)
}

// ComputeScratch is Compute with its working and result sets carved
// from ar (nil: a private arena, equivalent to Compute). The returned
// Info aliases arena memory: it is valid until the arena owner's next
// Reset, which in practice means "for the rest of the current compile
// phase". span, when non-nil, records the dataflow iteration count and
// the resulting live-set sizes. A nil span costs nothing, and the
// recorded stats are all O(blocks) reads of state the fixpoint already
// built — capture is always on in the service, so this path must never
// do instruction-granular work (MaxPressure stays available for
// offline diagnosis).
func ComputeScratch(f *ir.Func, span *telemetry.Span, ar *scratch.Arena) *Info {
	info := new(Info)
	ComputeInto(f, span, ar, info)
	return info
}

// ComputeInto is ComputeScratch filling a caller-owned Info — for hot
// paths that embed the Info in their own (single-allocation) state
// instead of paying a heap allocation per compile. Any previous
// contents of info are overwritten.
func ComputeInto(f *ir.Func, span *telemetry.Span, ar *scratch.Arena, info *Info) {
	if ar == nil {
		ar = new(scratch.Arena)
	}
	n := len(f.Blocks)
	nr := f.NumRegs()
	*info = Info{
		F:       f,
		LiveIn:  ar.Bitsets(n, nr),
		LiveOut: ar.Bitsets(n, nr),
		tmp:     ar.Bitset(nr),
	}

	// The backward fixpoint converges fastest over the postorder; the
	// walk runs on arena buffers, since this is on the per-round hot
	// path of every allocator.
	post := f.Postorder(ar.Ints(n)[:0], ar.Ints(n), ar.Ints(2 * n)[:0])

	iters := 0
	if nr <= 64 {
		// Single-word specialization: every §8 kernel has at most 64
		// virtual registers, so each block's sets fit one uint64 and
		// the whole dataflow — local sets and fixpoint — runs on plain
		// machine words with no per-element calls. Results are or'd
		// into the (identically defined) Set views at the end; the
		// uevar/kill sets are fixpoint-internal and stay nil here.
		ue := ar.Uint64s(n)
		kl := ar.Uint64s(n)
		for _, b := range f.Blocks {
			var u, k uint64
			for _, in := range b.Instrs {
				for _, r := range in.Uses {
					if k&(1<<uint(r)) == 0 {
						u |= 1 << uint(r)
					}
				}
				for _, d := range in.Defs {
					k |= 1 << uint(d)
				}
			}
			ue[b.Index], kl[b.Index] = u, k
		}
		liveIn := ar.Uint64s(n)
		liveOut := ar.Uint64s(n)
		for changed := true; changed; {
			changed = false
			iters++
			for _, bi := range post {
				b := f.Blocks[bi]
				out := liveOut[bi]
				for _, s := range b.Succs {
					out |= liveIn[s.Index]
				}
				in := out&^kl[bi] | ue[bi]
				if out != liveOut[bi] {
					liveOut[bi] = out
					changed = true
				}
				if in != liveIn[bi] {
					liveIn[bi] = in
					changed = true
				}
			}
		}
		for i := 0; i < n; i++ {
			info.LiveIn[i].OrWord(0, liveIn[i])
			info.LiveOut[i].OrWord(0, liveOut[i])
		}
	} else {
		// Generic path. Local sets first: a use is upward-exposed if
		// not killed earlier in the block; defs kill.
		info.uevar = ar.Bitsets(n, nr)
		info.kill = ar.Bitsets(n, nr)
		for _, b := range f.Blocks {
			ue, kl := info.uevar[b.Index], info.kill[b.Index]
			for _, in := range b.Instrs {
				for _, u := range in.Uses {
					if !kl.Has(int(u)) {
						ue.Add(int(u))
					}
				}
				for _, d := range in.Defs {
					kl.Add(int(d))
				}
			}
		}
		// Backward fixpoint over postorder. LiveIn is mutated in place
		// through one scratch set instead of a fresh Copy per block per
		// iteration: the transfer result lands in tmp, and only a
		// changed block copies it back.
		tmp := ar.Bitset(nr)
		for changed := true; changed; {
			changed = false
			iters++
			for _, bi := range post {
				b := f.Blocks[bi]
				out := info.LiveOut[bi]
				for _, s := range b.Succs {
					if out.UnionWith(info.LiveIn[s.Index]) {
						changed = true
					}
				}
				tmp.CopyFrom(out)
				tmp.DiffWith(info.kill[bi])
				tmp.UnionWith(info.uevar[bi])
				if !tmp.Equal(info.LiveIn[bi]) {
					info.LiveIn[bi].CopyFrom(tmp)
					changed = true
				}
			}
		}
	}
	if span != nil {
		span.Add("iterations", int64(iters))
		span.Add("blocks", int64(n))
		liveSum, maxLive := 0, 0
		for i := range f.Blocks {
			in, out := info.LiveIn[i].Len(), info.LiveOut[i].Len()
			liveSum += out
			if in > maxLive {
				maxLive = in
			}
			if out > maxLive {
				maxLive = out
			}
		}
		span.Add("live_out_total", int64(liveSum))
		// Block-boundary live maximum: a lower bound on MaxPressure
		// that costs O(blocks) instead of a full instruction sweep.
		span.SetAttr("max_block_live", maxLive)
	}
}

// LiveAcross walks block b backwards and calls visit for each
// instruction with the set of registers live immediately *after* it.
// The set is one reusable scratch set shared by every LiveAcross call
// on this Info; visit must not retain it.
func (info *Info) LiveAcross(b *ir.Block, visit func(idx int, in *ir.Instr, liveAfter *bitset.Set)) {
	live := info.tmp
	live.CopyFrom(info.LiveOut[b.Index])
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		in := b.Instrs[i]
		visit(i, in, live)
		for _, d := range in.Defs {
			live.Remove(int(d))
		}
		for _, u := range in.Uses {
			live.Add(int(u))
		}
	}
}

// LiveParams reports, positionally for f.Params, whether each
// parameter's incoming value can ever be observed: a parameter is dead
// when every path from entry redefines it before reading it. Callers
// that bind arguments into a finite register file (the interpreter,
// the pipeline model) must skip dead parameters — an allocator may
// legally give a dead parameter the same machine register as a live
// one, since a value nobody reads interferes with nothing.
//
// The free function computes liveness from scratch; callers already
// holding an *Info use the method and pay nothing.
func LiveParams(f *ir.Func) []bool {
	return Compute(f).LiveParams()
}

// LiveParams reads the entry block's live-in set of an
// already-computed Info without re-running the analysis.
func (info *Info) LiveParams() []bool {
	f := info.F
	in := info.LiveIn[f.Entry().Index]
	out := make([]bool, len(f.Params))
	for i, p := range f.Params {
		out[i] = in.Has(int(p))
	}
	return out
}

// MaxPressure returns the maximum number of simultaneously live
// registers at any program point (measured after each instruction and
// at block entry).
func (info *Info) MaxPressure() int {
	max := 0
	for _, b := range info.F.Blocks {
		if n := info.LiveIn[b.Index].Len(); n > max {
			max = n
		}
		info.LiveAcross(b, func(_ int, _ *ir.Instr, live *bitset.Set) {
			if n := live.Len(); n > max {
				max = n
			}
		})
	}
	return max
}

// SpillCostsWeighted returns, for every virtual register, the classic
// Chaitin spill cost estimate: the sum over its occurrences of the
// block frequency, which f.BlockFreqs gives as 10^loopdepth. Spilling a
// register inserts a load per use and a store per def, so cost is
// proportional to weighted occurrence count. freq is indexed by
// Block.Index; the result is carved from ar (nil: heap; otherwise valid
// until the arena's next Reset). Spill rewriting inserts instructions
// but never changes the CFG, so a multi-round allocator computes
// frequencies once and reuses them every round.
func SpillCostsWeighted(f *ir.Func, freq []float64, ar *scratch.Arena) []float64 {
	var costs []float64
	if ar != nil {
		costs = ar.Float64s(f.NumRegs())
	} else {
		costs = make([]float64, f.NumRegs())
	}
	for _, b := range f.Blocks {
		w := freq[b.Index]
		for _, in := range b.Instrs {
			for _, u := range in.Uses {
				costs[u] += w
			}
			for _, d := range in.Defs {
				costs[d] += w
			}
		}
	}
	return costs
}

// Occurrences returns each register's static occurrence count (uses
// plus defs): the number of spill instructions its spilling inserts.
// The optimal spilling allocator minimizes this with the weighted cost
// as tiebreak.
func Occurrences(f *ir.Func) []float64 {
	counts := make([]float64, f.NumRegs())
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, u := range in.Uses {
				counts[u]++
			}
			for _, d := range in.Defs {
				counts[d]++
			}
		}
	}
	return counts
}
