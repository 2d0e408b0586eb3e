package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testdata/bench.txt is real `go test -bench -benchmem` output: several
// runs concatenated, two packages, -count 2 repeats, GOMAXPROCS 2 (the
// -2 suffix) and custom metrics.
func fixture(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("testdata/bench.txt")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func convert(t *testing.T, input string) *report {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out.json")
	if err := run(strings.NewReader(input), out, "", io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	return readReport(t, out)
}

func readReport(t *testing.T, path string) *report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestParseKeepsFastestRowPerLane(t *testing.T) {
	rep := convert(t, fixture(t))
	var names []string
	byName := map[string]result{}
	for _, r := range rep.Benchmarks {
		names = append(names, r.Name)
		byName[r.Name] = r
	}
	want := []string{
		"Pipeline/crc32/plain", "Pipeline/crc32/traced", "Pipeline/sha/plain", "Pipeline/sha/traced",
		"Alloc/crc32/ssa", "Alloc/crc32/irc", "Alloc/sha/ssa", "Alloc/sha/irc",
		"RemapGreedy/bitcount", "ModschedPopulation", "ILPSolve/disjoint", "ILPSolve/overlap",
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("lanes\n got %v\nwant %v", names, want)
	}
	if rep.GOMAXPROCS != 2 {
		t.Errorf("gomaxprocs = %d, want 2 from the -2 suffix", rep.GOMAXPROCS)
	}
	// Of each lane's -count 2 rows, the faster one survives whole.
	if r := byName["Pipeline/crc32/plain"]; r.NsPerOp != 2872083 || r.AllocsPerOp != 1095 || r.BytesPerOp != 97159 || r.Iterations != 20 {
		t.Errorf("Pipeline/crc32/plain kept %+v, want the 2872083 ns/op row", r)
	}
	if r := byName["Alloc/crc32/irc"]; r.NsPerOp != 26891 {
		t.Errorf("Alloc/crc32/irc kept %v ns/op, want 26891", r.NsPerOp)
	}
	if r := byName["ILPSolve/overlap"]; r.NsPerOp != 16029758 || r.Metrics["nodes/s"] != 3119338 {
		t.Errorf("ILPSolve/overlap kept %+v, want the 16029758 ns/op row", r)
	}
	if r := byName["RemapGreedy/bitcount"]; r.Metrics["evals/s"] != 35628968 || r.AllocsPerOp != 33 {
		t.Errorf("RemapGreedy/bitcount = %+v", r)
	}
	if m := byName["Alloc/sha/ssa"].Metrics; m != nil {
		t.Errorf("a lane without custom metrics got %v", m)
	}
}

func TestDerivedFields(t *testing.T) {
	rep := convert(t, fixture(t))

	crc32, sha := 26891.0/4282, 19260.0/3699
	if !near(rep.AllocSpeedups["crc32"], crc32) || !near(rep.AllocSpeedups["sha"], sha) || len(rep.AllocSpeedups) != 2 {
		t.Errorf("alloc_speedups = %v, want crc32 %v sha %v", rep.AllocSpeedups, crc32, sha)
	}
	if want := math.Sqrt(crc32 * sha); !near(rep.SpeedupSSAGeomean, want) {
		t.Errorf("speedup_ssa_geomean = %v, want %v", rep.SpeedupSSAGeomean, want)
	}

	// Two pairs: the median is the mean of their traced/plain ratios.
	median := (1784974.0/2872083 + 2942347.0/2433743) / 2
	if want := (median - 1) * 100; !near(rep.InstrumentationOverheadPct, want) {
		t.Errorf("instrumentation_overhead_pct = %v, want %v", rep.InstrumentationOverheadPct, want)
	}

	compile := 1765211.0 + 2922450
	for stage, sum := range map[string]float64{
		"allocate": 120822 + 244055, "remap": 1410140 + 2260704, "refine": 91439 + 189958,
		"verify": 11143 + 18400, "encode": 33759 + 24938, "check": 88493 + 170976,
	} {
		if got := rep.StageShares[stage]; !near(got, sum/compile) {
			t.Errorf("stage_shares[%s] = %v, want %v", stage, got, sum/compile)
		}
	}
	if len(rep.StageShares) != 6 {
		t.Errorf("stage_shares = %v, want the six stages", rep.StageShares)
	}

	want := modschedJointSummary{
		Loops: 300, Optimized: 29, RegN: 56, DiffN: 32, Improved: 14,
		SetsPhased: 1349, SetsJoint: 1201, SpeedupPhasedPct: 51.16, SpeedupJointPct: 51.16, BBNodes: 580000,
	}
	if rep.ModschedJoint == nil || *rep.ModschedJoint != want {
		t.Errorf("modsched_joint = %+v, want %+v", rep.ModschedJoint, want)
	}
}

// TestGates covers each way a run fails, and the run that passes
// against its own report.
func TestGates(t *testing.T) {
	in := fixture(t)
	dir := t.TempDir()
	self := filepath.Join(dir, "self.json")
	if err := run(strings.NewReader(in), self, "", io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	baseline := func(name string, edit func(*report)) string {
		rep := readReport(t, self)
		edit(rep)
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	renamed := baseline("renamed.json", func(rep *report) {
		for i := range rep.Benchmarks {
			rep.Benchmarks[i].Name += "/old"
		}
	})
	// Alloc/crc32/irc runs at 91 allocs/op; 70 puts its limit at
	// 70×1.1+10 = 87.
	tighter := baseline("tighter.json", func(rep *report) {
		for i := range rep.Benchmarks {
			if rep.Benchmarks[i].Name == "Alloc/crc32/irc" {
				rep.Benchmarks[i].AllocsPerOp = 70
			}
		}
	})
	// 81 allocs/op allows exactly 81×1.1+10 = 99.1 ≥ 91.
	atLimit := baseline("limit.json", func(rep *report) {
		for i := range rep.Benchmarks {
			if rep.Benchmarks[i].Name == "Alloc/crc32/irc" {
				rep.Benchmarks[i].AllocsPerOp = 81
			}
		}
	})
	slowSSA := "BenchmarkAlloc/crc32/ssa-2 \t 100\t 10000 ns/op\t 838 B/op\t 3 allocs/op\n" +
		"BenchmarkAlloc/crc32/irc-2 \t 100\t 25000 ns/op\t 8324 B/op\t 91 allocs/op\n"

	for _, tc := range []struct {
		name, input, baseline, wantErr string
	}{
		{"passes against itself", in, self, ""},
		{"passes within the budget", in, atLimit, ""},
		{"failed benchmark", in + "--- FAIL: BenchmarkAlloc/sha/ssa-2\n    bench_test.go:12: boom\nFAIL\nexit status 1\nFAIL\tdiffra\t0.2s\n", "", "benchmark run failed"},
		{"panic", strings.Replace(in, "PASS\n", "panic: runtime error: index out of range [3] with length 3\n", 1), "", "benchmark run failed"},
		{"build failure", "FAIL\tdiffra [build failed]\n", "", "benchmark run failed"},
		{"no benchmark rows", "goos: linux\ngoarch: amd64\npkg: diffra\nPASS\nok  \tdiffra\t0.01s\n", "", "no benchmark rows"},
		{"baseline shares no lane", in, renamed, "no lane of the run appears"},
		{"alloc regression", in, tighter, "1 lane(s) regressed"},
		{"ssa speedup below the floor", slowSSA, "", "speedup_ssa_geomean 2.50 below the 3 floor"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out.json")
			err := run(strings.NewReader(tc.input), out, tc.baseline, io.Discard, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
