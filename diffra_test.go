package diffra

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diffra/internal/adjacency"
	"diffra/internal/diffenc"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/remap"
	"diffra/internal/telemetry"
)

const sample = `
func acc(v0, v1) {
entry:
  v2 = li 0
  v3 = li 0
  jmp head
head:
  blt v3, v1 -> body, out
body:
  v4 = load v0, 0
  v2 = add v2, v4
  v5 = li 1
  v3 = add v3, v5
  v6 = li 4
  v0 = add v0, v6
  jmp head
out:
  ret v2
}
`

func TestCompileAllSchemes(t *testing.T) {
	for _, s := range []Scheme{Baseline, Remapping, Select, OSpill, Coalesce} {
		res, err := Compile(sample, Options{Scheme: s, RegN: 8, DiffN: 4, Restarts: 50})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.Instrs == 0 {
			t.Errorf("%s: empty result", s)
		}
		differential := s == Remapping || s == Select || s == Coalesce
		if differential && res.Encoding == nil {
			t.Errorf("%s: missing encoding", s)
		}
		if !differential && res.Encoding != nil {
			t.Errorf("%s: unexpected encoding", s)
		}
		if err := res.F.Verify(); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

func TestCompileRejectsGarbage(t *testing.T) {
	if _, err := Compile("not ir at all", Options{}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Compile(sample, Options{Scheme: "nope"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	res, err := Compile(sample, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Encoding == nil {
		t.Fatal("default scheme should be differential")
	}
	if res.Encoding.Cfg.RegN != 12 || res.Encoding.Cfg.DiffN != 8 {
		t.Fatalf("defaults: %+v", res.Encoding.Cfg)
	}
}

func TestFieldWidths(t *testing.T) {
	regW, diffW := FieldWidths(12, 8)
	if regW != 4 || diffW != 3 {
		t.Fatalf("widths %d/%d, want 4/3", regW, diffW)
	}
}

func TestSequenceFacade(t *testing.T) {
	regs := []int{1, 3, 8}
	codes, repairs, err := EncodeSequence(regs, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	// §2's running example: differences 1, 2, 5.
	want := []int{1, 2, 5}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("codes = %v, want %v", codes, want)
		}
	}
	back, err := DecodeSequence(codes, repairs, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range regs {
		if back[i] != regs[i] {
			t.Fatalf("roundtrip %v != %v", back, regs)
		}
	}
	// A negative code names no difference; the decoder rejects it.
	if regs, err := DecodeSequence([]int{-1, 2}, nil, 8, 4); err == nil {
		t.Fatalf("DecodeSequence accepted code -1: %v", regs)
	}
}

func TestAdjacencyCost(t *testing.T) {
	// 3 -> 2 is difference 7 with RegN=8: violated at DiffN=2.
	if c := AdjacencyCost([]int{2, 3, 2}, 8, 2); c != 1 {
		t.Fatalf("cost = %d, want 1", c)
	}
	if c := AdjacencyCost([]int{2, 3, 2}, 8, 8); c != 0 {
		t.Fatalf("direct-equivalent cost = %d, want 0", c)
	}
}

func TestCompileSpillsUnderPressure(t *testing.T) {
	res, err := Compile(sample, Options{Scheme: Baseline, RegN: 3, DiffN: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpillInstrs == 0 {
		t.Fatal("expected spill code at RegN=3")
	}
	if !strings.Contains(res.F.String(), "spill_") {
		t.Fatal("spill instructions not present in output")
	}
}

func TestDiffNExceedsRegNRejected(t *testing.T) {
	if _, err := Compile(sample, Options{RegN: 4, DiffN: 8}); err == nil {
		t.Fatal("DiffN > RegN accepted")
	}
	// The DiffN default must shrink with small register files instead
	// of tripping the same validation.
	res, err := Compile(sample, Options{Scheme: Baseline, RegN: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instrs == 0 {
		t.Fatal("empty result")
	}
}

func TestOptionsResolvedCanonicalizes(t *testing.T) {
	// DiffN defaults to min(8, RegN).
	o, err := Options{Scheme: Baseline, RegN: 4}.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	if o.DiffN != 4 {
		t.Fatalf("DiffN default = %d, want 4", o.DiffN)
	}
	// Schemes that never run the remapping search resolve Restarts to
	// 0 regardless of the requested value, so cache keys match.
	o, err = Options{Scheme: Baseline, Restarts: 500}.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	if o.Restarts != 0 {
		t.Fatalf("Baseline Restarts = %d, want 0", o.Restarts)
	}
	o, err = Options{Scheme: OSpill, Restarts: 7}.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	if o.Restarts != 0 {
		t.Fatalf("OSpill Restarts = %d, want 0", o.Restarts)
	}
	// Differential schemes keep the requested budget and default it.
	o, err = Options{Scheme: Select}.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	if o.Restarts != 1000 {
		t.Fatalf("Select Restarts default = %d, want 1000", o.Restarts)
	}
}

func TestGeometryValidationBoundaries(t *testing.T) {
	// The facade and diffenc.Config.Validate agree: RegN=1 is invalid
	// (a 1-register file has no differences to encode), and negative
	// DiffN must not sneak past the zero-value defaulting.
	if _, err := Compile(sample, Options{RegN: 1, DiffN: 1}); err == nil {
		t.Fatal("RegN=1 accepted")
	}
	if _, err := Compile(sample, Options{RegN: 8, DiffN: -3}); err == nil {
		t.Fatal("negative DiffN accepted")
	}
	if _, _, err := EncodeSequence([]int{0}, 1, 1); err == nil {
		t.Fatal("sequence codec accepted RegN=1")
	}
	if _, _, err := EncodeSequence([]int{0, 1}, 8, -1); err == nil {
		t.Fatal("sequence codec accepted negative DiffN")
	}
	// DiffN == RegN is a valid boundary, including at a register count
	// that is not a power of two. The full alphabet makes every
	// difference encodable, so range repairs must vanish; join repairs
	// may remain (decode state is still path-dependent).
	for _, regN := range []int{2, 12, 31} {
		res, err := Compile(sample, Options{Scheme: Select, RegN: regN, DiffN: regN, Restarts: 10})
		if err != nil {
			t.Fatalf("RegN=DiffN=%d: %v", regN, err)
		}
		for _, s := range res.Encoding.Sets {
			if s.Reason == diffenc.ReasonRange {
				t.Fatalf("RegN=DiffN=%d: full alphabet emitted a range repair (value %d)", regN, s.Value)
			}
		}
	}
}

func TestCompileEmitsSpanTree(t *testing.T) {
	sink := &telemetry.CollectSink{}
	for _, s := range []Scheme{Baseline, Remapping, Select, OSpill, Coalesce} {
		_, err := Compile(sample, Options{
			Scheme: s, RegN: 8, DiffN: 4, Restarts: 20,
			Telemetry: telemetry.New(sink),
		})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		root := sink.Last()
		if root == nil || root.Name != "compile" {
			t.Fatalf("%s: no compile span emitted", s)
		}
		if root.Attr("scheme") != string(s) {
			t.Fatalf("%s: scheme attr = %v", s, root.Attr("scheme"))
		}
		if root.Find("allocate") == nil || root.Find("verify") == nil {
			t.Fatalf("%s: span tree missing allocate/verify", s)
		}
		differential := s == Remapping || s == Select || s == Coalesce
		if differential {
			enc := root.Find("encode")
			if enc == nil || root.Find("check") == nil {
				t.Fatalf("%s: differential scheme missing encode/check spans", s)
			}
			if enc.Counter("sets") != enc.Counter("join_sets")+enc.Counter("range_sets") {
				t.Fatalf("%s: set accounting does not add up: %v", s, enc.Counters)
			}
		}
		switch s {
		case Baseline, Select:
			if root.Find("liveness") == nil {
				t.Fatalf("%s: no liveness span under allocate", s)
			}
		case OSpill, Coalesce:
			if root.Find("ilp") == nil {
				t.Fatalf("%s: no ilp span under allocate", s)
			}
		}
	}
}

// TestCoalesceILPSpanCarriesStealCounters: differential coalesce
// decides its spills through the same reported ILP decision as the
// optimal spilling scheme, so a coalesce compile's
// compile/allocate/ilp span carries the epoch scheduler's counters and
// the cancelled attribute, and a registry the tree is bridged into
// counts diffra_span_ilp_steal_epochs.
func TestCoalesceILPSpanCarriesStealCounters(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "altsum.ir"))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sink := &telemetry.CollectSink{}
	if _, err := Compile(string(src), Options{
		Scheme: Coalesce, RegN: 6, DiffN: 4, Restarts: 10,
		Telemetry: telemetry.New(telemetry.MultiSink{sink, &telemetry.MetricsSink{Reg: reg}}),
	}); err != nil {
		t.Fatal(err)
	}
	var ilp *telemetry.Span
	if root := sink.Last(); root != nil && root.Name == "compile" && root.Find("allocate") != nil {
		for _, c := range root.Find("allocate").Children {
			if c.Name == "ilp" {
				ilp = c
			}
		}
	}
	if ilp == nil {
		t.Fatal("no compile/allocate/ilp span")
	}
	for _, name := range []string{"steal_epochs", "steal_items", "steal_broadcasts"} {
		found := false
		for _, c := range ilp.Counters {
			found = found || c.Name == name
		}
		if !found {
			t.Errorf("ilp span has no %s counter: %v", name, ilp.Counters)
		}
	}
	epochs := ilp.Counter("steal_epochs")
	if epochs == 0 || ilp.Counter("steal_items") == 0 {
		t.Fatalf("no scheduler activity on the ilp span: %v", ilp.Counters)
	}
	if got := ilp.Attr("cancelled"); got != false {
		t.Errorf("cancelled attr = %v, want false", got)
	}
	if got := reg.Counter("diffra_span_ilp_steal_epochs").Value(); float64(got) != epochs {
		t.Errorf("diffra_span_ilp_steal_epochs = %d, span reports %v", got, epochs)
	}
}

// deepNestIR generates a function whose innermost block sits depth
// loops deep: header h<i> enters level i+1 or exits to e<i>, which is
// level i-1's latch. Every header and latch also computes, so the
// adjacency graph has edges at every depth.
func deepNestIR(depth int) string {
	var b strings.Builder
	b.WriteString("func deep(v0) {\nentry:\n")
	for v := 1; v <= 14; v++ {
		fmt.Fprintf(&b, "  v%d = li %d\n", v, v)
	}
	b.WriteString("  jmp h0\n")
	reg := func(i int) int { return 1 + i%14 }
	for i := 0; i < depth; i++ {
		inner := fmt.Sprintf("h%d", i+1)
		if i == depth-1 {
			inner = "body"
		}
		fmt.Fprintf(&b, "h%d:\n  v%d = add v%d, v%d\n  br v1 -> %s, e%d\n", i, reg(i), reg(i+3), reg(i+7), inner, i)
	}
	b.WriteString("body:\n  v2 = xor v3, v4\n  v5 = add v2, v6\n")
	fmt.Fprintf(&b, "  jmp h%d\n", depth-1)
	for i := depth - 1; i >= 1; i-- {
		fmt.Fprintf(&b, "e%d:\n  v%d = sub v%d, v%d\n  jmp h%d\n", i, reg(i+5), reg(i+1), reg(i+9), i-1)
	}
	b.WriteString("e0:\n  ret v2\n}\n")
	return b.String()
}

// TestDeepLoopNestCompiles: ir.BlockFreqs' 10^depth is uncapped, so a
// nest 309 or more loops deep weighs its inner adjacency edges and
// spill costs +Inf. Every scheme must still compile well inside a
// deadline, and the remapping search must report the cost of the
// permutation it returns.
func TestDeepLoopNestCompiles(t *testing.T) {
	f, err := ir.Parse(deepNestIR(320))
	if err != nil {
		t.Fatal(err)
	}
	if freq := f.BlockFreqs(); !math.IsInf(freq[f.Blocks[len(f.Blocks)/2].Index], 1) {
		t.Fatal("test premise broken: the innermost blocks should weigh +Inf")
	}
	for _, s := range []Scheme{Baseline, Remapping, Select, OSpill, Coalesce} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		done := make(chan error, 1)
		go func() {
			_, err := CompileFuncContext(ctx, f, Options{Scheme: s, RemapWorkers: 1})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", s, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: compile hung past its deadline", s)
		}
		cancel()
	}

	out, asn, err := irc.Allocate(f, irc.Options{K: 12})
	if err != nil {
		t.Fatal(err)
	}
	g := adjacency.BuildReg(out, func(r ir.Reg) int { return asn.Color[r] }, 12)
	res := remap.Auto(g, remap.Options{RegN: 12, DiffN: 8, Seed: 1, Workers: 1})
	if got := g.PermCost(res.Perm, 12, 8); res.Cost != got {
		t.Fatalf("cost %v, PermCost of the returned permutation %v", res.Cost, got)
	}
}
