package diffra

import (
	"context"
	"errors"
	"testing"
	"time"

	"diffra/internal/ir"
	"diffra/internal/regalloc"
)

func TestPreferredBackend(t *testing.T) {
	want := map[Scheme]Backend{
		Baseline: AllocIRC, Remapping: AllocIRC, Select: AllocIRC,
		OSpill: AllocOSpill, Coalesce: AllocOSpill,
	}
	for s, b := range want {
		if got := s.preferred(); got != b {
			t.Errorf("%s.preferred() = %s, want %s", s, got, b)
		}
	}
}

func TestResolvedCanonicalizesAlloc(t *testing.T) {
	for _, tc := range []struct {
		scheme Scheme
		in     Backend
		want   Backend
	}{
		{Select, "", AllocIRC},
		{Coalesce, "", AllocOSpill},
		{Select, AllocAuto, AllocAuto},
		{Coalesce, AllocSSA, AllocSSA},
	} {
		got, err := Options{Scheme: tc.scheme, Alloc: tc.in}.Resolved()
		if err != nil {
			t.Fatalf("Resolved(%s/%s): %v", tc.scheme, tc.in, err)
		}
		if got.Alloc != tc.want {
			t.Errorf("Resolved(%s/%q).Alloc = %q, want %q", tc.scheme, tc.in, got.Alloc, tc.want)
		}
	}
	if _, err := (Options{Alloc: "bogus"}).Resolved(); err == nil {
		t.Error("unknown alloc backend accepted")
	}
}

// TestEveryBackendUnderEveryScheme compiles the shared sample under
// the full scheme x backend grid; every combination must produce a
// verified coloring and report the backend it ran.
func TestEveryBackendUnderEveryScheme(t *testing.T) {
	schemes := []Scheme{Baseline, Remapping, Select, OSpill, Coalesce}
	backends := []Backend{AllocIRC, AllocSSA, AllocOSpill}
	for _, s := range schemes {
		for _, b := range backends {
			res, err := Compile(sample, Options{Scheme: s, Alloc: b, RegN: 8, DiffN: 4, Restarts: 20})
			if err != nil {
				t.Fatalf("%s/%s: %v", s, b, err)
			}
			if res.AllocBackend != b {
				t.Errorf("%s/%s: AllocBackend = %q", s, b, res.AllocBackend)
			}
			if err := regalloc.Verify(res.F, res.Assignment); err != nil {
				t.Errorf("%s/%s: invalid coloring: %v", s, b, err)
			}
			if err := res.F.Verify(); err != nil {
				t.Errorf("%s/%s: malformed output: %v", s, b, err)
			}
		}
	}
}

// TestResolveAutoLadder drives the deadline policy directly — no
// timing, just deadlines far enough out (or near enough in) that the
// estimates decide deterministically.
func TestResolveAutoLadder(t *testing.T) {
	f := ir.MustParse(sample)
	at := func(d time.Duration) context.Context {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(d))
		t.Cleanup(cancel)
		return ctx
	}
	sel, _ := Options{Scheme: Select}.Resolved()
	coal, _ := Options{Scheme: Coalesce}.Resolved()

	if got := resolveAuto(context.Background(), f, sel); got != AllocIRC {
		t.Errorf("no deadline (select) = %s, want irc", got)
	}
	if got := resolveAuto(context.Background(), f, coal); got != AllocOSpill {
		t.Errorf("no deadline (coalesce) = %s, want ospill", got)
	}
	if got := resolveAuto(at(time.Hour), f, coal); got != AllocOSpill {
		t.Errorf("1h deadline (coalesce) = %s, want ospill", got)
	}
	// Under the ospill floor (200ms) but over the IRC estimate.
	if got := resolveAuto(at(100*time.Millisecond), f, coal); got != AllocIRC {
		t.Errorf("100ms deadline (coalesce) = %s, want irc", got)
	}
	// Under the IRC floor (2ms): only the scan fits.
	if got := resolveAuto(at(500*time.Microsecond), f, sel); got != AllocSSA {
		t.Errorf("0.5ms deadline (select) = %s, want ssa", got)
	}
	// The IRC estimate grows quadratically with the vreg count, so a
	// deadline that is plenty for a kernel steps a huge function down.
	big := ir.NewFunc("big")
	blk := big.NewBlock("entry")
	for i := 0; i < 80000; i++ {
		big.NewReg()
	}
	_ = blk
	if got := resolveAuto(at(500*time.Millisecond), big, sel); got != AllocSSA {
		t.Errorf("500ms deadline at 80k vregs = %s, want ssa", got)
	}
}

// TestPhaseErrorAttribution: an expired context surfaces as a
// PhaseError naming the phase and backend, while still matching the
// underlying context error through errors.Is.
func TestPhaseErrorAttribution(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompileContext(ctx, sample, Options{Scheme: Select, RegN: 8, DiffN: 4})
	if err == nil {
		t.Fatal("cancelled compile succeeded")
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a PhaseError: %v", err)
	}
	if pe.Phase != "allocate" || pe.Backend != AllocIRC {
		t.Errorf("attribution = %q/%q, want allocate/irc", pe.Phase, pe.Backend)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("PhaseError does not unwrap to context.Canceled: %v", err)
	}
}

// TestPhaseErrorNamesRemap: cancelling mid-way through a long
// remapping search attributes the timeout to the remap phase —
// allocation on this kernel is microseconds, the 3M-restart search
// runs far past the 30ms cancel point. Under select the refine
// post-pass follows remap; it must not run once the deadline has
// fired, so the error still names remap.
func TestPhaseErrorNamesRemap(t *testing.T) {
	for _, scheme := range []Scheme{Remapping, Select} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		_, err := CompileContext(ctx, sample, Options{Scheme: scheme, RegN: 8, DiffN: 4, Restarts: 3_000_000})
		cancel()
		if err == nil {
			t.Skipf("%s: search finished inside the deadline on this host", scheme)
		}
		var pe *PhaseError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: error is not a PhaseError: %v", scheme, err)
		}
		if pe.Phase != "remap" {
			t.Errorf("%s: phase = %q, want remap", scheme, pe.Phase)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: PhaseError does not unwrap to DeadlineExceeded: %v", scheme, err)
		}
	}
}
