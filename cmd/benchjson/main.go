// Command benchjson converts `go test -bench` output into the
// repository's BENCH_*.json baselines and gates a run against one. It
// reads the benchmark output on stdin and echoes it to stderr:
//
//	go test -run '^$' -bench 'Pipeline$' -benchmem -count 3 . | go run ./cmd/benchjson -o BENCH_pipeline.json
//	go test -run '^$' -bench 'Pipeline$' -benchmem -benchtime 1x . | go run ./cmd/benchjson -baseline BENCH_pipeline.json
//
// Every benchmark, named without its Benchmark prefix and -N GOMAXPROCS
// suffix, is one lane. With -count repeats the fastest row of a lane is
// kept: noise on a shared host only ever slows a run down. From the
// lanes and custom metrics present it derives
//
//   - alloc_speedups (irc over ssa ns/op) and speedup_ssa_geomean from
//     the Alloc/<kernel>/{ssa,irc} pairs;
//   - instrumentation_overhead_pct, the median traced/plain ns/op
//     ratio minus one, from the Pipeline/<kernel>/{plain,traced} pairs;
//   - stage_shares, each stage's summed <stage>-ns/op over the summed
//     compile-ns/op of the traced Pipeline lanes;
//   - modsched_joint from the ModschedPopulation metrics.
//
// The exit status is non-zero when the input holds a FAIL or panic:
// line or no benchmark row; with -baseline, when the run shares no lane
// with the baseline or a shared lane's allocs/op grew by more than 10%
// plus 10; and when speedup_ssa_geomean is present and below 3.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

const (
	// maxAllocRegressPct is the allowed allocs/op growth over the
	// baseline, in percent.
	maxAllocRegressPct = 10
	// allocNoiseFloor is the absolute allocs/op slack granted on top of
	// the percentage budget: lanes in the single digits jitter by a
	// handful of allocations (map growth, a pooled buffer minted under
	// unlucky timing) and a 2→3 step is a 50% "regression" that means
	// nothing. Real hot-loop regressions, a per-iteration map or
	// slice, show up as hundreds of allocations and clear both.
	allocNoiseFloor = 10
	// minSSASpeedup is the floor on speedup_ssa_geomean: a conservative
	// fraction of the documented "at least 5× lower latency" that a
	// short, noisy run still clears.
	minSSASpeedup = 3
)

// result is one lane of the report.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Metrics holds the custom b.ReportMetric values by unit, such as
	// evals/s or nodes/s.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	// Host context: throughput numbers are only comparable on the same
	// hardware. GOMAXPROCS is read from the rows' -N suffix.
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Benchmarks []result `json:"benchmarks"`

	// StageShares is each compile stage's share of the compile span's
	// time; shares need not sum to 1, since time between stages is the
	// pipeline's own glue.
	StageShares map[string]float64 `json:"stage_shares,omitempty"`
	// InstrumentationOverheadPct is the cost of the service's always-on
	// capture. Pairing plus the median keeps clock drift and noisy
	// neighbours from swamping a sub-percent effect; the acceptance
	// bound is 3%, and negative values are measurement noise.
	InstrumentationOverheadPct float64 `json:"instrumentation_overhead_pct,omitempty"`

	// AllocSpeedups is IRC ns/op over SSA-scan ns/op per kernel, and
	// SpeedupSSAGeomean their geometric mean, so one outlier kernel
	// does not dominate the headline.
	AllocSpeedups     map[string]float64 `json:"alloc_speedups,omitempty"`
	SpeedupSSAGeomean float64            `json:"speedup_ssa_geomean,omitempty"`

	// ModschedJoint is the joint-vs-phased comparison over the loop
	// population sample.
	ModschedJoint *modschedJointSummary `json:"modsched_joint,omitempty"`
}

// modschedJointSummary aggregates the ModschedPopulation metrics:
// set_last_reg totals under both pipelines, the loops the combined
// search strictly improved, and the branch-and-bound effort.
type modschedJointSummary struct {
	Loops            int     `json:"loops"`
	Optimized        int     `json:"optimized"`
	RegN             int     `json:"reg_n"`
	DiffN            int     `json:"diff_n"`
	Improved         int     `json:"improved"`
	SetsPhased       int     `json:"sets_phased"`
	SetsJoint        int     `json:"sets_joint"`
	SpeedupPhasedPct float64 `json:"speedup_phased_pct"`
	SpeedupJointPct  float64 `json:"speedup_joint_pct"`
	BBNodes          int64   `json:"bb_nodes"`
}

func main() {
	out := flag.String("o", "-", "output file (- for stdout)")
	baseline := flag.String("baseline", "", "committed report to gate allocs/op against")
	flag.Parse()
	if err := run(io.TeeReader(os.Stdin, os.Stderr), *out, *baseline, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run converts the benchmark output in, writes the report to out
// ("-": stdout) and applies the gates, logging them to logw.
func run(in io.Reader, out, baseline string, stdout, logw io.Writer) error {
	rep, err := parse(in)
	if err != nil {
		return err
	}
	derive(rep, logw)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		if _, err := stdout.Write(data); err != nil {
			return err
		}
	} else if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}

	var errs []error
	if baseline != "" {
		errs = append(errs, checkAllocRegression(baseline, rep, logw))
	}
	if rep.SpeedupSSAGeomean > 0 && rep.SpeedupSSAGeomean < minSSASpeedup {
		errs = append(errs, fmt.Errorf("speedup_ssa_geomean %.2f below the %d floor", rep.SpeedupSSAGeomean, minSSASpeedup))
	}
	return errors.Join(errs...)
}

// parse reads `go test -bench` output into a report holding the
// fastest row of every lane, in first-seen order. It fails on any sign
// of a failed run: go test without pipefail exits through the pipe, so
// this is where a broken benchmark must stop CI. It reads to the end
// even then, so the echo keeps the whole failure, stack trace included.
func parse(in io.Reader) (*report, error) {
	rep := &report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: 1,
	}
	lane := map[string]int{}
	failed := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, bad := range []string{"FAIL", "--- FAIL", "panic:"} {
			if failed == "" && strings.HasPrefix(line, bad) {
				failed = line
			}
		}
		row, procs, ok := parseRow(line)
		if !ok {
			continue
		}
		rep.GOMAXPROCS = max(rep.GOMAXPROCS, procs)
		if i, seen := lane[row.Name]; !seen {
			lane[row.Name] = len(rep.Benchmarks)
			rep.Benchmarks = append(rep.Benchmarks, row)
		} else if row.NsPerOp < rep.Benchmarks[i].NsPerOp {
			rep.Benchmarks[i] = row
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if failed != "" {
		return nil, fmt.Errorf("benchmark run failed: %s", failed)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, errors.New("no benchmark rows in the input")
	}
	return rep, nil
}

// parseRow parses one result line,
//
//	BenchmarkName/sub-4   	 100	  12345 ns/op	 67.0 evals/s	  8 B/op	 1 allocs/op
//
// returning the row and the GOMAXPROCS suffix (1 when absent).
func parseRow(line string) (result, int, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return result{}, 0, false
	}
	n, err := strconv.Atoi(f[1])
	if err != nil {
		return result{}, 0, false
	}
	name, procs := strings.TrimPrefix(f[0], "Benchmark"), 1
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	row := result{Name: name, Iterations: n}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return result{}, 0, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			row.NsPerOp = v
		case "B/op":
			row.BytesPerOp = int64(v)
		case "allocs/op":
			row.AllocsPerOp = int64(v)
		default:
			if row.Metrics == nil {
				row.Metrics = map[string]float64{}
			}
			row.Metrics[unit] = v
		}
	}
	return row, procs, true
}

// derive fills the report fields computed from lanes and metrics.
func derive(rep *report, logw io.Writer) {
	byName := map[string]result{}
	for _, r := range rep.Benchmarks {
		byName[r.Name] = r
	}

	logSum := 0.0
	var ratios []float64
	var compile float64
	stages := map[string]float64{}
	for _, r := range rep.Benchmarks {
		if k, ok := kernelOf(r.Name, "Alloc/", "/ssa"); ok {
			if irc, ok := byName["Alloc/"+k+"/irc"]; ok && r.NsPerOp > 0 {
				if rep.AllocSpeedups == nil {
					rep.AllocSpeedups = map[string]float64{}
				}
				rep.AllocSpeedups[k] = irc.NsPerOp / r.NsPerOp
				logSum += math.Log(rep.AllocSpeedups[k])
			}
		}
		if k, ok := kernelOf(r.Name, "Pipeline/", "/plain"); ok {
			if traced, ok := byName["Pipeline/"+k+"/traced"]; ok && r.NsPerOp > 0 {
				ratios = append(ratios, traced.NsPerOp/r.NsPerOp)
			}
		}
		if _, ok := kernelOf(r.Name, "Pipeline/", "/traced"); ok {
			for unit, v := range r.Metrics {
				if stage, ok := strings.CutSuffix(unit, "-ns/op"); ok {
					if stage == "compile" {
						compile += v
					} else {
						stages[stage] += v
					}
				}
			}
		}
	}
	if n := len(rep.AllocSpeedups); n > 0 {
		rep.SpeedupSSAGeomean = math.Exp(logSum / float64(n))
		fmt.Fprintf(logw, "ssa-over-irc speedup (geomean of %d kernels): %.2fx\n", n, rep.SpeedupSSAGeomean)
	}
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		mid := len(ratios) / 2
		median := ratios[mid]
		if len(ratios)%2 == 0 {
			median = (ratios[mid-1] + ratios[mid]) / 2
		}
		rep.InstrumentationOverheadPct = (median - 1) * 100
		fmt.Fprintf(logw, "instrumentation overhead (median of %d paired ratios): %+.2f%%\n",
			len(ratios), rep.InstrumentationOverheadPct)
	}
	if compile > 0 {
		rep.StageShares = map[string]float64{}
		for stage, v := range stages {
			rep.StageShares[stage] = v / compile
		}
	}
	if r, ok := byName["ModschedPopulation"]; ok {
		m := r.Metrics
		rep.ModschedJoint = &modschedJointSummary{
			Loops:            int(m["loops"]),
			Optimized:        int(m["optimized-loops"]),
			RegN:             int(m["regn"]),
			DiffN:            int(m["diffn"]),
			Improved:         int(m["improved-loops"]),
			SetsPhased:       int(m["sets/phased"]),
			SetsJoint:        int(m["sets/joint"]),
			SpeedupPhasedPct: m["speedup%/phased"],
			SpeedupJointPct:  m["speedup%/joint"],
			BBNodes:          int64(m["bb-nodes"]),
		}
	}
}

// kernelOf returns the middle of a prefix<kernel>suffix lane name.
func kernelOf(name, prefix, suffix string) (string, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return "", false
	}
	return strings.CutSuffix(rest, suffix)
}

// checkAllocRegression compares the run's allocs/op against a committed
// baseline, lane by lane. Only names present in both count, so adding
// or retiring a lane never breaks the gate; but a run sharing no lane
// with the baseline fails, since a renamed lane would otherwise turn
// the gate off unnoticed.
func checkAllocRegression(path string, rep *report, logw io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	byName := map[string]result{}
	for _, r := range base.Benchmarks {
		byName[r.Name] = r
	}
	compared, failed := 0, 0
	for _, r := range rep.Benchmarks {
		b, ok := byName[r.Name]
		if !ok {
			continue
		}
		compared++
		limit := float64(b.AllocsPerOp)*(1+maxAllocRegressPct/100.0) + allocNoiseFloor
		if float64(r.AllocsPerOp) > limit {
			failed++
			fmt.Fprintf(logw, "ALLOC REGRESSION %-28s %d allocs/op, baseline %d (limit %.0f)\n",
				r.Name, r.AllocsPerOp, b.AllocsPerOp, limit)
		}
	}
	fmt.Fprintf(logw, "alloc gate: %d lanes compared against %s, %d over budget\n", compared, path, failed)
	if compared == 0 {
		return fmt.Errorf("no lane of the run appears in %s", path)
	}
	if failed > 0 {
		return fmt.Errorf("%d lane(s) regressed more than %d%% over %s", failed, maxAllocRegressPct, path)
	}
	return nil
}
