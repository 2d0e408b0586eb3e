// Command perfbench is diffra's serving-path benchmark. It runs the
// compile service (internal/service) in-process behind httptest on
// loopback TCP, drives it with two closed-loop clients, checks every
// reply against a correctness oracle, and prints either the end-to-end
// metrics of a timed run (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). The end-to-end time metrics are scaled to a
// reference host speed by calibrations run between load slices
// (calib.go); the raw readings are printed beside them. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it
// first:
//
//	bash perfbench/run.sh --workload miss-remap --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	workload := flag.String("workload", "", "traffic mix: miss-remap, miss-spill or hit-replay")
	seed := flag.Int64("seed", 1, "seed for the clients' walk order and the miss workloads' function names")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1: print per-layer metrics from a traced run instead of end-to-end metrics")
	spans := flag.String("spans", "", "file the traced run writes its spans to (default .bench_build/spans-<workload>-seed<seed>.jsonl)")
	flag.Parse()
	if (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		os.Exit(2)
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
	}
	res, err := run(config{
		workload:   *workload,
		seed:       *seed,
		dur:        time.Duration(*seconds) * time.Second,
		trace:      *trace == 1,
		setups:     5,
		minSamples: 1000,
		spans:      *spans,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
