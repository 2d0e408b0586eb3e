package service

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// wideIR builds a deep straight-chain CFG with `width` values carried
// block to block and a fresh vreg for every definition, so the vreg
// count grows with the block count (V ~= blocks*width) while register
// pressure stays ~width+2. At tens of thousands of vregs IRC's
// quadratic interference matrix dominates its runtime, while the SSA
// scan stays near-linear — the exact regime the deadline ladder's
// quadratic IRC term models.
func wideIR(blocks, width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func wide(v0) {\nentry:\n")
	next := 1
	prev := make([]int, width)
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "  v%d = li %d\n", next, i+1)
		prev[i] = next
		next++
	}
	fmt.Fprintf(&b, "  jmp b0\n")
	for bl := 0; bl < blocks; bl++ {
		fmt.Fprintf(&b, "b%d:\n", bl)
		cur := make([]int, width)
		for i := 0; i < width; i++ {
			fmt.Fprintf(&b, "  v%d = add v%d, v%d\n", next, prev[i], prev[(i+1)%width])
			cur[i] = next
			next++
		}
		if bl == blocks-1 {
			fmt.Fprintf(&b, "  jmp done\n")
		} else {
			fmt.Fprintf(&b, "  jmp b%d\n", bl+1)
		}
		prev = cur
	}
	fmt.Fprintf(&b, "done:\n")
	acc := prev[0]
	for i := 1; i < width; i++ {
		fmt.Fprintf(&b, "  v%d = add v%d, v%d\n", next, acc, prev[i])
		acc = next
		next++
	}
	fmt.Fprintf(&b, "  ret v%d\n}\n", acc)
	return b.String()
}

// TestAutoBackendBeatsDeadline is the portfolio's acceptance check: a
// deadline too small for IRC on this instance (the policy estimates
// ~480ms for ~48k vregs; measured runs land between 0.3s and 3s) must
// come back as a successful SSA-allocated compile under -alloc auto,
// not as a timeout. The policy decision is deterministic — it compares
// the remaining budget against an estimate computed from instance
// size — and the SSA lane runs this instance in well under half the
// deadline.
func TestAutoBackendBeatsDeadline(t *testing.T) {
	if raceEnabled {
		t.Skip("deadline-calibrated; the race detector's slowdown breaks the envelope")
	}
	srv := newTestServer(t, Config{MaxRequestBytes: 8 << 20})
	resp := srv.Compile(context.Background(), Request{
		IR: wideIR(1200, 40), Scheme: "baseline", RegN: 64,
		Alloc: "auto", TimeoutMs: 400,
	})
	if resp.Error != "" {
		t.Fatalf("auto-backend compile failed (timeout=%v phase=%q backend=%q): %s",
			resp.Timeout, resp.TimeoutPhase, resp.TimeoutBackend, resp.Error)
	}
	if resp.AllocBackend != "ssa" {
		t.Fatalf("auto resolved to %q, want ssa (deadline below the IRC estimate)", resp.AllocBackend)
	}
	if got := srv.Registry().CounterL("service_alloc_backend_total", "backend", "ssa").Value(); got != 1 {
		t.Errorf("service_alloc_backend_total{backend=ssa} = %d, want 1", got)
	}
	recs := srv.Traces()
	if len(recs) == 0 || recs[0].Alloc != "ssa" {
		t.Errorf("trace record missing resolved backend: %+v", recs)
	}
}

// TestExplicitIRCTimeoutReportsPhaseAndBackend pins the S1 contract: a
// deadline that fires during allocation yields a timeout response that
// names the phase and backend that were running, in the Response and
// in the retained trace record. IRC on a ~10k-vreg instance takes tens
// of milliseconds at minimum, so a 1ms deadline always fires.
func TestExplicitIRCTimeoutReportsPhaseAndBackend(t *testing.T) {
	srv := newTestServer(t, Config{})
	resp := srv.Compile(context.Background(), Request{
		IR: wideIR(500, 20), Scheme: "baseline", RegN: 32,
		Alloc: "irc", TimeoutMs: 1,
	})
	if resp.Error == "" {
		t.Fatal("1ms IRC compile of a 10k-vreg function succeeded; instance not slow enough")
	}
	if !resp.Timeout {
		t.Fatalf("deadline failure not flagged as timeout: %q", resp.Error)
	}
	if resp.TimeoutPhase != "allocate" || resp.TimeoutBackend != "irc" {
		t.Fatalf("timeout attribution = phase %q backend %q, want allocate/irc (error: %s)",
			resp.TimeoutPhase, resp.TimeoutBackend, resp.Error)
	}
	recs := srv.Traces()
	if len(recs) == 0 {
		t.Fatal("no trace retained for the timeout")
	}
	if recs[0].TimeoutPhase != "allocate" || recs[0].TimeoutBackend != "irc" {
		t.Errorf("trace record attribution = phase %q backend %q, want allocate/irc",
			recs[0].TimeoutPhase, recs[0].TimeoutBackend)
	}
}

// TestAllocCacheKeyRules pins the backend hashing rules: an explicit
// backend is part of the key, the empty backend canonicalizes to the
// scheme's preferred one (so explicit-default and default share an
// entry), and "auto" hashes as the literal string — two auto requests
// with different deadlines share the entry even though the resolution
// could differ.
func TestAllocCacheKeyRules(t *testing.T) {
	srv := newTestServer(t, Config{})
	ctx := context.Background()

	// Default backend, then the explicit spelling of the same default.
	first := srv.Compile(ctx, Request{IR: tinyIR, Scheme: "select"})
	if first.Error != "" || first.Cached {
		t.Fatalf("seed compile: %+v", first)
	}
	if first.AllocBackend != "irc" {
		t.Fatalf("select's default backend = %q, want irc", first.AllocBackend)
	}
	if r := srv.Compile(ctx, Request{IR: tinyIR, Scheme: "select", Alloc: "irc"}); !r.Cached {
		t.Error("explicit default backend missed the default entry")
	}

	// A different explicit backend is a different entry.
	ssaResp := srv.Compile(ctx, Request{IR: tinyIR, Scheme: "select", Alloc: "ssa"})
	if ssaResp.Cached {
		t.Error("ssa backend hit the irc entry")
	}
	if ssaResp.Error != "" || ssaResp.AllocBackend != "ssa" {
		t.Fatalf("ssa compile: %+v", ssaResp)
	}

	// Auto keys on the literal "auto", not the resolution: a repeat
	// with a very different deadline still hits, and the entry reports
	// the backend that originally produced it.
	auto1 := srv.Compile(ctx, Request{IR: tinyIR, Scheme: "select", Alloc: "auto"})
	if auto1.Error != "" || auto1.Cached {
		t.Fatalf("auto seed: %+v", auto1)
	}
	auto2 := srv.Compile(ctx, Request{IR: tinyIR, Scheme: "select", Alloc: "auto", TimeoutMs: 20000})
	if !auto2.Cached {
		t.Error("auto requests with different deadlines did not share an entry")
	}
	if auto2.AllocBackend != auto1.AllocBackend {
		t.Errorf("cached auto entry changed backends: %q then %q", auto1.AllocBackend, auto2.AllocBackend)
	}
}

func TestUnknownAllocBackendRejected(t *testing.T) {
	srv := newTestServer(t, Config{})
	r := srv.Compile(context.Background(), Request{IR: tinyIR, Alloc: "bogus"})
	if r.Error == "" || !strings.Contains(r.Error, "unknown alloc backend") {
		t.Fatalf("bogus backend not rejected: %+v", r)
	}
}

// TestAllocHeader: the HTTP layer surfaces the resolved backend as
// X-Diffra-Alloc so auto clients can see who answered without parsing
// the body.
func TestAllocHeader(t *testing.T) {
	_, ts := newTestHTTP(t)
	hr, resp := postCompile(t, ts.URL, Request{IR: tinyIR, Scheme: "select", Alloc: "ssa"})
	if resp.Error != "" {
		t.Fatalf("compile failed: %s", resp.Error)
	}
	if got := hr.Header.Get("X-Diffra-Alloc"); got != "ssa" {
		t.Fatalf("X-Diffra-Alloc = %q, want ssa", got)
	}
}
