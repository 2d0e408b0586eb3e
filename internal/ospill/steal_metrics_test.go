package ospill

import (
	"fmt"
	"slices"
	"strconv"
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
// must be observable in production: Stats.Steal filled per allocation,
// the ilp span annotated, and a registry the span tree is bridged into
// (as `diffra -metrics` and a server's /metrics are) rendering the
// diffra_span_ilp_steal_* counters.
func TestStealStatsReachMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.New(telemetry.MultiSink{&telemetry.CollectSink{}, &telemetry.MetricsSink{Reg: reg}})
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

	assertRendered(t, reg, "diffra_span_ilp_steal_epochs", st.Steal.Epochs)
	assertRendered(t, reg, "diffra_span_ilp_steal_items", st.Steal.Items)
	assertRendered(t, reg, "diffra_span_ilp_steal_broadcasts", st.Steal.Broadcasts)
}

// assertRendered fails unless reg holds counter name at want and both
// of its text formats render it so: the dump behind `diffra -metrics`
// and the Prometheus exposition behind /metrics.
func assertRendered(t *testing.T, reg *telemetry.Registry, name string, want int64) {
	t.Helper()
	if got := reg.Counter(name).Value(); got != want {
		t.Errorf("%s = %d, want %d", name, got, want)
	}
	v := strconv.FormatInt(want, 10)
	var text, prom strings.Builder
	reg.WriteText(&text)
	reg.WritePrometheus(&prom)
	for _, out := range []struct {
		format, body string
		line         []string
	}{
		{"text", text.String(), []string{"counter", name, v}},
		{"prometheus", prom.String(), []string{name, v}},
	} {
		found := false
		for _, l := range strings.Split(out.body, "\n") {
			found = found || slices.Equal(strings.Fields(l), out.line)
		}
		if !found {
			t.Errorf("%s output has no line %q:\n%s", out.format, strings.Join(out.line, " "), out.body)
		}
	}
}
