package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the smoke test holds the
// benchmark to.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// exactCounts are properties of a workload's distinct inputs, not of
// the walk order or the names a seed picks, so every seed must report
// the same values.
var exactCounts = []string{"set_last_regs", "spill_instrs", "cycles", "remap.evals", "ilp.nodes"}

// TestSmoke runs every workload briefly, timed and traced, under two
// seeds. Every metric BENCHMARK.json names must be printed with its
// unit, no request may fail, and the exact counts must not depend on
// the seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloadList))
	}
	for _, cw := range c.Workloads {
		t.Run(cw.Name, func(t *testing.T) {
			counts := map[int64]map[string]float64{}
			for _, seed := range []int64{1, 2} {
				counts[seed] = map[string]float64{}
				for _, trace := range []bool{false, true} {
					want := c.EndToEnd
					if trace {
						want = c.PerLayer
					}
					var out bytes.Buffer
					res, err := run(config{
						workload:   cw.Name,
						seed:       seed,
						dur:        400 * time.Millisecond,
						trace:      trace,
						setups:     1,
						minSamples: 1,
						spans:      filepath.Join(t.TempDir(), "spans.jsonl"),
					}, &out)
					if err != nil {
						t.Fatalf("seed %d trace %t: %v", seed, trace, err)
					}
					text := out.String()
					if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
						t.Fatalf("seed %d trace %t: correct=%t attempted=%d failed=%d\n%s",
							seed, trace, res.Correct, res.Attempted, res.Failed, text)
					}
					if !strings.Contains(text, "metric error_rate 0 ratio\n") {
						t.Errorf("seed %d trace %t: error_rate is not 0\n%s", seed, trace, text)
					}
					if len(res.Metrics) != len(want) {
						t.Errorf("seed %d trace %t: %d metrics, BENCHMARK.json names %d", seed, trace, len(res.Metrics), len(want))
					}
					for _, m := range want {
						got, ok := res.Metrics[m.Name]
						if !ok || got.Unit != m.Unit {
							t.Errorf("seed %d trace %t: metric %s is %+v, want unit %s", seed, trace, m.Name, got, m.Unit)
							continue
						}
						if line := fmt.Sprintf("metric %s %v %s\n", m.Name, got.Value, m.Unit); !strings.Contains(text, line) {
							t.Errorf("seed %d trace %t: output lacks %q", seed, trace, line)
						}
					}
					for _, name := range exactCounts {
						if m, ok := res.Metrics[name]; ok {
							counts[seed][name] = m.Value
						}
					}
				}
			}
			for _, name := range exactCounts {
				a, aok := counts[1][name]
				b, bok := counts[2][name]
				if !aok || !bok || a != b {
					t.Errorf("%s: seed 1 reported %v, seed 2 %v", name, a, b)
				}
			}
		})
	}
}
