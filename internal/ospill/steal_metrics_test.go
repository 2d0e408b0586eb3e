package ospill

import (
	"fmt"
	"strings"
	"testing"

	"diffra/internal/ir"
	"diffra/internal/regalloc"
	"diffra/internal/telemetry"
)

// overPressureFunc builds a function whose live-range covering
// instance is dense enough that the solver genuinely schedules work
// items (the shape TestNonOptimalCounterIncrements uses).
func overPressureFunc() *ir.Func {
	var b strings.Builder
	b.WriteString("func pressure(v0) {\nentry:\n")
	for i := 1; i <= 10; i++ {
		fmt.Fprintf(&b, "  v%d = li %d\n", i, i)
	}
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&b, "  v%d = add v%d, v%d\n", 11+i, 1+i, 1+(i+1)%10)
	}
	acc := 11
	for i := 1; i < 10; i++ {
		fmt.Fprintf(&b, "  v%d = xor v%d, v%d\n", 21+i-1, acc, 11+i)
		acc = 21 + i - 1
	}
	fmt.Fprintf(&b, "  ret v%d\n}\n", acc)
	return ir.MustParse(b.String())
}

// TestStealStatsReachMetrics: the epoch scheduler's behaviour
// must be observable in production — Stats.Steal filled per allocation,
// the ilp span annotated, and the process-wide ilp_steal_* counters
// (rendered by `diffra -metrics` and the Prometheus endpoint) ticking.
func TestStealStatsReachMetrics(t *testing.T) {
	beforeEpochs := telemetry.Default.Counter("ilp_steal_epochs").Value()
	beforeItems := telemetry.Default.Counter("ilp_steal_items").Value()

	tracer := telemetry.New(&telemetry.CollectSink{})
	root := tracer.Start("allocate")
	out, asn, st, err := Allocate(overPressureFunc(), Options{K: 6, Trace: root})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if err := regalloc.Verify(out, asn); err != nil {
		t.Fatal(err)
	}
	if st.Steal.Epochs == 0 || st.Steal.Items == 0 {
		t.Fatalf("no scheduler activity recorded in Stats: %+v", st.Steal)
	}

	ilpSpan := root.Find("ilp")
	if ilpSpan == nil {
		t.Fatal("ilp span missing")
	}
	if got := ilpSpan.Counter("steal_epochs"); got != float64(st.Steal.Epochs) {
		t.Fatalf("span steal_epochs %v, stats %d", got, st.Steal.Epochs)
	}
	if got := ilpSpan.Counter("steal_items"); got != float64(st.Steal.Items) {
		t.Fatalf("span steal_items %v, stats %d", got, st.Steal.Items)
	}

	if got := telemetry.Default.Counter("ilp_steal_epochs").Value(); got != beforeEpochs+st.Steal.Epochs {
		t.Fatalf("ilp_steal_epochs = %d, want %d", got, beforeEpochs+st.Steal.Epochs)
	}
	if got := telemetry.Default.Counter("ilp_steal_items").Value(); got != beforeItems+st.Steal.Items {
		t.Fatalf("ilp_steal_items = %d, want %d", got, beforeItems+st.Steal.Items)
	}

	// Pin the rendered registry surfaces: the text dump behind
	// `diffra -metrics` and the Prometheus exposition.
	var text, prom strings.Builder
	telemetry.Default.WriteText(&text)
	telemetry.Default.WritePrometheus(&prom)
	for _, name := range []string{"ilp_steal_epochs", "ilp_steal_items", "ilp_steal_broadcasts"} {
		if !strings.Contains(text.String(), name) {
			t.Errorf("metrics text output missing %s:\n%s", name, text.String())
		}
		if !strings.Contains(prom.String(), name) {
			t.Errorf("prometheus output missing %s", name)
		}
	}
}
