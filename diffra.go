// Package diffra is a from-scratch reproduction of "Differential
// Register Allocation" (Zhuang & Pande, PLDI 2005): differential
// register encoding — operand fields hold mod-RegN differences between
// consecutive register accesses instead of absolute numbers — plus the
// paper's three integrations with register allocation (post-pass
// remapping, differential select, differential coalesce), the
// substrate compilers and simulators its evaluation needs, and a
// harness regenerating every figure and table of the paper.
//
// This package is the high-level facade: parse a textual IR function,
// allocate it under a chosen scheme, differentially encode it, and
// read back the costs. The building blocks live in internal/ packages
// (ir, liveness, regalloc, irc, ospill, diffenc, adjacency, remap,
// diffsel, diffcoal, encode, cache, pipeline, vliw, modsched,
// workloads, experiments); see DESIGN.md for the map.
package diffra

import (
	"context"
	"fmt"
	"time"

	"diffra/internal/adjacency"
	"diffra/internal/diffcoal"
	"diffra/internal/diffenc"
	"diffra/internal/diffsel"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/ospill"
	"diffra/internal/regalloc"
	"diffra/internal/remap"
	"diffra/internal/scratch"
	"diffra/internal/ssaalloc"
	"diffra/internal/telemetry"
)

// Scheme selects a register allocation strategy.
type Scheme string

// The five schemes of the paper's evaluation (§10.1).
const (
	// Baseline: iterated register coalescing with direct encoding.
	Baseline Scheme = "baseline"
	// Remapping: allocate, then permute register numbers to fit
	// differential encoding (§5).
	Remapping Scheme = "remapping"
	// Select: graph coloring whose select stage minimizes differential
	// cost (§6), refined by the post-pass.
	Select Scheme = "select"
	// OSpill: optimal spilling via integer programming, direct
	// encoding (Appel & George, the paper's [1]).
	OSpill Scheme = "ospill"
	// Coalesce: optimal spilling plus differential coalescing (§7).
	Coalesce Scheme = "coalesce"
)

// Backend names an allocation backend of the portfolio. The scheme
// fixes the paper semantics (which post-passes run, how the result is
// encoded); the backend picks who does the core register allocation,
// trading quality for latency.
type Backend string

const (
	// AllocAuto resolves per request: the scheme's preferred backend
	// when the deadline allows, stepping down to IRC and finally to the
	// SSA scan as the context nears expiry. The resolved choice is
	// reported in Result.AllocBackend and never participates in cache
	// keys (two auto requests with different deadlines share an entry).
	AllocAuto Backend = "auto"
	// AllocIRC is iterated register coalescing — the quality default
	// for the graph-coloring schemes.
	AllocIRC Backend = "irc"
	// AllocSSA is the chordal dominance-order scan (internal/ssaalloc):
	// near-linear, arena-backed, an order of magnitude faster than IRC
	// on the §8 kernels; spills are pressure-driven (Belady) rather
	// than cost-optimal.
	AllocSSA Backend = "ssa"
	// AllocOSpill is exact spilling via the ILP solver — the quality
	// default for the OSpill and Coalesce schemes, and the most
	// expensive by far.
	AllocOSpill Backend = "ospill"
)

// preferred is the backend a scheme uses at full quality — what the
// empty Alloc option resolves to, and the top of the auto ladder.
func (s Scheme) preferred() Backend {
	if s == OSpill || s == Coalesce {
		return AllocOSpill
	}
	return AllocIRC
}

// Options configures Compile.
type Options struct {
	// Scheme is the allocation strategy (default Select).
	Scheme Scheme
	// Alloc selects the allocation backend: AllocIRC, AllocSSA,
	// AllocOSpill, or AllocAuto to pick per request from instance
	// size and deadline remaining. Empty resolves to the scheme's
	// preferred backend (IRC for baseline/remapping/select, exact
	// spilling for ospill/coalesce), so zero-value options behave
	// exactly as before the portfolio existed. The scheme's post-passes
	// (remapping, refinement, encoding) run regardless of backend.
	Alloc Backend
	// RegN is the number of addressable registers (default 12).
	RegN int
	// DiffN is the number of encodable differences (default
	// min(8, RegN)). DiffN == RegN disables differential encoding
	// (direct-equivalent); DiffN > RegN is rejected — the difference
	// alphabet cannot exceed the register file (§2).
	DiffN int
	// Restarts bounds the remapping search (default 1000).
	Restarts int
	// RemapWorkers bounds the goroutines the remapping search shards
	// its restarts across (0: GOMAXPROCS; 1: serial). The search is
	// deterministic at any worker count — same options, same
	// permutation — so this only trades wall-clock time for CPU and
	// never participates in result caching.
	RemapWorkers int
	// SpillWorkers bounds the goroutines the optimal-spill ILP solver
	// (OSpill and Coalesce schemes) searches across (0 or 1: serial).
	// The solver is deterministic at any worker count — same options,
	// same spill set — so, like RemapWorkers, this only trades
	// wall-clock time for CPU and never participates in result caching.
	SpillWorkers int
	// Telemetry, when non-nil, receives one span tree per compiled
	// function (compile → allocate/remap/refine/verify/encode/check).
	// It is the only channel a compile reports through: the root span
	// carries instrs, spill_instrs and set_last_regs, and a
	// telemetry.MetricsSink folds the trees into the caller's registry.
	// Nil costs nothing.
	Telemetry *telemetry.Tracer
	// Scratch, when non-nil, supplies the arena the compile's hot
	// phases (IRC allocation, differential encoding) carve transient
	// state from. The compile owns the arena for its duration and
	// resets it between phases; results never alias it. One arena
	// serves one compile at a time on one goroutine — the service gives
	// each worker its own. Never affects results or cache keys.
	Scratch *scratch.Arena
}

func (o *Options) fill() error {
	if o.Scheme == "" {
		o.Scheme = Select
	}
	switch o.Scheme {
	case Baseline, Remapping, Select, OSpill, Coalesce:
	default:
		return fmt.Errorf("diffra: unknown scheme %q", o.Scheme)
	}
	switch o.Alloc {
	case "":
		// Canonicalize to the concrete default so an explicit
		// `-alloc irc` request and a default one share a cache entry.
		o.Alloc = o.Scheme.preferred()
	case AllocAuto, AllocIRC, AllocSSA, AllocOSpill:
	default:
		return fmt.Errorf("diffra: unknown alloc backend %q", o.Alloc)
	}
	if o.RegN == 0 {
		o.RegN = 12
	}
	if o.RegN < 2 {
		return fmt.Errorf("diffra: RegN=%d: need at least 2 registers", o.RegN)
	}
	if o.DiffN == 0 {
		o.DiffN = 8
		if o.DiffN > o.RegN {
			o.DiffN = o.RegN
		}
	}
	if o.DiffN < 1 {
		return fmt.Errorf("diffra: DiffN=%d: difference count must be positive", o.DiffN)
	}
	if o.DiffN > o.RegN {
		return fmt.Errorf("diffra: DiffN=%d exceeds RegN=%d: cannot encode more differences than registers", o.DiffN, o.RegN)
	}
	if o.Restarts == 0 {
		o.Restarts = 1000
	}
	// Canonicalization: schemes that never run the remapping search
	// resolve Restarts to 0, so two requests differing only in an
	// irrelevant Restarts value share a cache entry downstream.
	if o.Scheme == Baseline || o.Scheme == OSpill {
		o.Restarts = 0
	}
	return nil
}

// Resolved returns the options with every default filled in, or an
// error for an invalid geometry. The compile service derives cache
// keys from resolved options so that equivalent requests (explicit
// defaults vs. zero values) share a cache entry.
func (o Options) Resolved() (Options, error) {
	err := (&o).fill()
	return o, err
}

// validateSeq checks a sequence-codec geometry with the same error
// shape Options.fill uses for Compile, and the same bounds
// diffenc.Config.Validate enforces (RegN >= 2 in particular, so the
// facade and the codec never disagree about a boundary geometry).
func validateSeq(regN, diffN int) error {
	if regN < 2 {
		return fmt.Errorf("diffra: RegN=%d: need at least 2 registers", regN)
	}
	if diffN <= 0 {
		return fmt.Errorf("diffra: DiffN=%d: difference count must be positive", diffN)
	}
	if diffN > regN {
		return fmt.Errorf("diffra: DiffN=%d exceeds RegN=%d: cannot encode more differences than registers", diffN, regN)
	}
	return nil
}

// Result is a compiled function.
type Result struct {
	// F is the allocated function: spill code inserted, coalesced
	// moves removed, and (for differential schemes) set_last_reg
	// instructions applied.
	F *ir.Func
	// Assignment maps every virtual register to a machine register.
	Assignment *regalloc.Assignment
	// Encoding is the differential encoding plan (nil for Baseline and
	// OSpill, which encode directly).
	Encoding *diffenc.Result
	// Instrs, SpillInstrs and SetLastRegs are static counts over F.
	Instrs, SpillInstrs, SetLastRegs int
	// AllocBackend is the backend that actually allocated: the resolved
	// choice under AllocAuto, otherwise the requested one.
	AllocBackend Backend
}

// PhaseError is the context-expiry error: it records which compile
// phase and which allocation backend were active when the deadline
// fired or the request was cancelled, so deadline-policy misses are
// diagnosable ("the remap search ate the budget" vs "even the ssa scan
// did not fit"). It wraps the context error, so
// errors.Is(err, context.DeadlineExceeded) keeps working.
type PhaseError struct {
	// Func is the function being compiled.
	Func string
	// Phase is the compile phase that was running: "allocate", "remap",
	// "refine", "verify", or "encode".
	Phase string
	// Backend is the allocation backend in effect (resolved under auto).
	Backend Backend
	// Err is the underlying context error.
	Err error
}

func (e *PhaseError) Error() string {
	return fmt.Sprintf("diffra: compile %s: %s phase (backend %s): %v", e.Func, e.Phase, e.Backend, e.Err)
}

func (e *PhaseError) Unwrap() error { return e.Err }

// Compile parses one function in the textual IR format (see
// internal/ir.Parse for the grammar), allocates registers under the
// chosen scheme, and — for differential schemes — encodes it, checking
// that every field decodes back to the allocated register along all
// control-flow paths.
func Compile(src string, opts Options) (*Result, error) {
	return CompileContext(context.Background(), src, opts)
}

// CompileContext is Compile honouring a context: a deadline or
// cancellation aborts the compilation between phases and interrupts
// long-running searches (the optimal-spill ILP, the coalescing loop,
// the remapping restarts) from within. The returned error wraps
// ctx.Err(), so errors.Is(err, context.DeadlineExceeded) works.
func CompileContext(ctx context.Context, src string, opts Options) (*Result, error) {
	f, err := ir.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileFuncContext(ctx, f, opts)
}

// CompileFunc is Compile for an already-constructed function.
func CompileFunc(f *ir.Func, opts Options) (*Result, error) {
	return CompileFuncContext(context.Background(), f, opts)
}

// CompileFuncContext is CompileFunc honouring a context; see
// CompileContext.
func CompileFuncContext(ctx context.Context, f *ir.Func, opts Options) (*Result, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// A context that can never be cancelled keeps the zero-overhead
	// path: no hook is installed and no phase checks allocate.
	var cancelled func() bool
	if ctx.Done() != nil {
		cancelled = func() bool { return ctx.Err() != nil }
	}
	backend := opts.Alloc
	if backend == AllocAuto {
		backend = resolveAuto(ctx, f, opts)
	}
	phase := "allocate"
	ctxErr := func(f *ir.Func) error {
		return &PhaseError{Func: f.Name, Phase: phase, Backend: backend, Err: ctx.Err()}
	}
	root := opts.Telemetry.Start("compile")
	defer root.End()
	root.SetAttr("func", f.Name)
	root.SetAttr("scheme", string(opts.Scheme))
	root.SetAttr("regn", opts.RegN)
	root.SetAttr("diffn", opts.DiffN)
	root.SetAttr("alloc_backend", string(backend))

	var (
		out *ir.Func
		asn *regalloc.Assignment
		err error
	)
	// The backend owns the core allocation; the scheme's post-passes
	// (remapping, refinement) and encoding mode are unchanged by it.
	alloc := root.Child("allocate")
	alloc.SetAttr("backend", string(backend))
	differential := opts.Scheme == Remapping || opts.Scheme == Select || opts.Scheme == Coalesce
	switch backend {
	case AllocSSA:
		diff := diffsel.Params{}
		if opts.Scheme == Select || opts.Scheme == Coalesce {
			// The §6 cost hook rides the scan's color tiebreak for the
			// schemes whose allocator integrates differential select.
			diff = diffsel.Params{RegN: opts.RegN, DiffN: opts.DiffN}
		}
		out, asn, err = ssaalloc.Allocate(f, ssaalloc.Options{K: opts.RegN, Diff: diff, Trace: alloc, Scratch: opts.Scratch})
		if err == nil && out == f {
			// The scan's no-spill path returns the input itself; the
			// facade's contract is a private function the post-passes
			// and the encoder are free to mutate.
			out = f.Clone()
		}
	case AllocOSpill:
		if opts.Scheme == Coalesce {
			out, asn, _, err = diffcoal.Allocate(f, diffcoal.Options{RegN: opts.RegN, DiffN: opts.DiffN, SpillWorkers: opts.SpillWorkers, Trace: alloc, Cancel: cancelled})
		} else {
			out, asn, _, err = ospill.Allocate(f, ospill.Options{K: opts.RegN, Workers: opts.SpillWorkers, Trace: alloc, Cancel: cancelled})
		}
	default: // AllocIRC
		io := irc.Options{K: opts.RegN, Trace: alloc, Scratch: opts.Scratch}
		if opts.Scheme == Select {
			io.PickerFactory = diffsel.NewFactory(diffsel.Params{RegN: opts.RegN, DiffN: opts.DiffN, Trace: alloc})
		}
		out, asn, err = irc.Allocate(f, io)
	}
	alloc.End()
	if err == nil && ctx.Err() == nil {
		switch opts.Scheme {
		case Remapping:
			phase = "remap"
			applyRemap(out, asn, opts, root, cancelled)
		case Select, Coalesce:
			phase = "remap"
			applyRemap(out, asn, opts, root, cancelled)
			if ctx.Err() == nil {
				phase = "refine"
				refineTraced(out, asn, opts, root, cancelled)
			}
		}
	}
	if ce := ctx.Err(); ce != nil {
		// A cancel-induced allocator error (ospill.ErrCancelled, ...)
		// surfaces as the context's own error so callers can match
		// context.DeadlineExceeded / context.Canceled.
		err = ctxErr(f)
		root.SetAttr("error", err.Error())
		return nil, err
	}
	if err != nil {
		root.SetAttr("error", err.Error())
		return nil, err
	}
	phase = "verify"
	verify := root.Child("verify")
	err = regalloc.Verify(out, asn)
	verify.End()
	if err != nil {
		root.SetAttr("error", err.Error())
		return nil, err
	}

	res := &Result{F: out, Assignment: asn, AllocBackend: backend}
	if ce := ctx.Err(); ce != nil {
		err = ctxErr(f)
		root.SetAttr("error", err.Error())
		return nil, err
	}
	phase = "encode"
	if differential {
		cfg := diffenc.Config{RegN: opts.RegN, DiffN: opts.DiffN}
		regOf := func(r ir.Reg) int { return asn.Color[r] }
		encSpan := root.Child("encode")
		// The allocate phase is over: nothing arena-backed is live (the
		// rewritten function, the assignment, and the result are all
		// heap), so the encoder starts from a rewound arena.
		if opts.Scratch != nil {
			opts.Scratch.Reset()
		}
		enc, err := diffenc.EncodeScratch(out, regOf, cfg, opts.Scratch)
		if enc != nil {
			encSpan.Add("sets", int64(enc.Cost()))
			encSpan.Add("join_sets", int64(enc.JoinSets))
			encSpan.Add("range_sets", int64(enc.RangeSets()))
			encSpan.Add("codes", int64(len(enc.Codes)))
		}
		encSpan.End()
		if err != nil {
			root.SetAttr("error", err.Error())
			return nil, err
		}
		checkSpan := root.Child("check")
		err = diffenc.Check(out, regOf, cfg, enc)
		checkSpan.End()
		if err != nil {
			root.SetAttr("error", err.Error())
			return nil, err
		}
		enc.ApplyToIR(out)
		res.Encoding = enc
		res.SetLastRegs = enc.Cost()
	}
	res.SpillInstrs, res.Instrs = regalloc.SpillStats(out)
	root.Add("instrs", int64(res.Instrs))
	root.Add("spill_instrs", int64(res.SpillInstrs))
	root.Add("set_last_regs", int64(res.SetLastRegs))
	return res, nil
}

// resolveAuto is the deadline policy behind AllocAuto: exact spilling
// when there is budget for it (and the scheme wants it), IRC in the
// middle, the SSA scan when the context is about to expire. The
// latency estimates are deliberately pessimistic — stepping down a
// backend costs some allocation quality, while missing the deadline
// costs the whole request — and scale with instance size so a huge
// function steps down sooner than a kernel.
func resolveAuto(ctx context.Context, f *ir.Func, opts Options) Backend {
	pref := opts.Scheme.preferred()
	deadline, ok := ctx.Deadline()
	if !ok {
		return pref // no deadline: full quality
	}
	instrs := 0
	for _, b := range f.Blocks {
		instrs += len(b.Instrs)
	}
	remaining := time.Until(deadline)
	// IRC's cost has a term quadratic in the vreg count: its interference
	// graph keeps an O(V^2)-bit adjacency matrix, so a function with tens
	// of thousands of vregs pays hundreds of milliseconds in graph build
	// alone. The SSA scan never materializes the graph and stays
	// near-linear, which is exactly when stepping down pays off.
	v := f.NumRegs()
	ircEst := 2*time.Millisecond + time.Duration(instrs)*4*time.Microsecond +
		time.Duration(uint64(v)*uint64(v)/8)*time.Nanosecond
	ospillEst := 200*time.Millisecond + time.Duration(instrs)*2*time.Millisecond
	if pref == AllocOSpill && remaining >= ospillEst {
		return AllocOSpill
	}
	if remaining >= ircEst {
		return AllocIRC
	}
	return AllocSSA
}

func applyRemap(out *ir.Func, asn *regalloc.Assignment, opts Options, parent *telemetry.Span, cancel func() bool) {
	span := parent.Child("remap")
	defer span.End()
	g := adjacency.BuildReg(out, func(r ir.Reg) int { return asn.Color[r] }, opts.RegN)
	perm := remap.Auto(g, remap.Options{
		RegN: opts.RegN, DiffN: opts.DiffN, Restarts: opts.Restarts, Seed: 1,
		Workers: opts.RemapWorkers, Trace: span, Cancel: cancel,
	})
	for v, c := range asn.Color {
		if c >= 0 {
			asn.Color[v] = perm.Perm[c]
		}
	}
}

func refineTraced(out *ir.Func, asn *regalloc.Assignment, opts Options, parent *telemetry.Span, cancel func() bool) {
	span := parent.Child("refine")
	defer span.End()
	changed := diffsel.Refine(out, asn, diffsel.Params{RegN: opts.RegN, DiffN: opts.DiffN, Cancel: cancel})
	span.Add("recolored", int64(changed))
}

// FieldWidths reports the operand field widths of a configuration:
// direct encoding needs RegW bits, differential encoding DiffW (§2).
func FieldWidths(regN, diffN int) (regW, diffW int) {
	cfg := diffenc.Config{RegN: regN, DiffN: diffN}
	return cfg.RegW(), cfg.DiffW()
}

// EncodeSequence differentially encodes a straight-line register
// access sequence (the §2 scheme); see internal/diffenc for the full
// control-flow-aware encoder.
func EncodeSequence(regs []int, regN, diffN int) (codes []int, repairs map[int]int, err error) {
	if err := validateSeq(regN, diffN); err != nil {
		return nil, nil, err
	}
	return diffenc.EncodeSequence(regs, diffenc.Config{RegN: regN, DiffN: diffN})
}

// DecodeSequence inverts EncodeSequence.
func DecodeSequence(codes []int, repairs map[int]int, regN, diffN int) ([]int, error) {
	if err := validateSeq(regN, diffN); err != nil {
		return nil, err
	}
	return diffenc.DecodeSequence(codes, repairs, nil, diffenc.Config{RegN: regN, DiffN: diffN})
}

// AdjacencyCost evaluates condition (3) over an access sequence under
// a given numbering: the number of adjacent pairs needing a
// set_last_reg.
func AdjacencyCost(regs []int, regN, diffN int) int {
	cost := 0
	for i := 1; i < len(regs); i++ {
		if !adjacency.Satisfied(regs[i-1], regs[i], regN, diffN) {
			cost++
		}
	}
	return cost
}
