package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"diffra"
	"diffra/internal/difftest"
	"diffra/internal/ir"
	"diffra/internal/liveness"
	"diffra/internal/pipeline"
	"diffra/internal/service"
	"diffra/internal/workloads"
)

// lane is one request shape of a workload's mix: a scheme, an
// allocation backend and a register-file size. DiffN stays at the
// facade default, min(8, RegN).
type lane struct {
	scheme diffra.Scheme
	alloc  diffra.Backend
	regN   int
}

var (
	// remapLanes put the §5 remapping search on the critical path: at
	// RegN 12 it does about 93% of the compile work.
	remapLanes = []lane{
		{diffra.Select, diffra.AllocIRC, 12},
		{diffra.Remapping, diffra.AllocIRC, 12},
	}
	// spillLanes leave the work to the allocation backends and the spill
	// ILP; remap runs only in the coalesce lane and stays under 5%. The
	// cheap irc and ssa lanes set the p50, the coalesce lane the p99.
	spillLanes = []lane{
		{diffra.Baseline, diffra.AllocIRC, 6},
		{diffra.Baseline, diffra.AllocSSA, 6},
		{diffra.OSpill, diffra.AllocOSpill, 6},
		{diffra.Coalesce, diffra.AllocOSpill, 8},
	}
)

// workload is one traffic mix: the paper's ten kernels (§10.1) under
// each of its lanes.
type workload struct {
	name  string
	lanes []lane
	// miss renames the function on every request, so every cache key is
	// new and every request compiles. Otherwise the kernels keep their
	// names and, once set-up has compiled them, every request hits.
	miss bool
	// warmPasses is how often set-up walks the distinct set: enough
	// requests for arena growth, cache filling and GC pacing to settle
	// before timing, and for set-up to take a tenth of a second or more.
	warmPasses int
}

var workloadList = []workload{
	{name: "miss-remap", lanes: remapLanes, miss: true, warmPasses: 2},
	{name: "miss-spill", lanes: spillLanes, miss: true, warmPasses: 8},
	{name: "hit-replay", lanes: append(append([]lane(nil), remapLanes...), spillLanes...), warmPasses: 4},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// input is one distinct request of a workload: one kernel under one
// lane.
type input struct {
	kernel workloads.Kernel
	lane   lane
	// tail is the kernel's IR text after the function name; a request's
	// IR is "func " + name + tail.
	tail string
	// pre and post are the request's JSON encoding before and after the
	// function name, so a request body is spliced, not encoded.
	pre, post []byte
	// want is what every reply for this input must report; the oracle
	// fills it in before anything is timed.
	want expected
}

// expected holds the oracle's values for one input, or their sums over
// a distinct set.
type expected struct {
	instrs, spillInstrs, setLastRegs int
	allocBackend                     string
	cycles                           uint64
}

func buildInputs(w workload) ([]*input, error) {
	kernels := workloads.Kernels()
	var out []*input
	for _, l := range w.lanes {
		for _, k := range kernels {
			text := k.F.String()
			head := "func " + k.F.Name
			if !strings.HasPrefix(text, head+"(") {
				return nil, fmt.Errorf("kernel %s: unexpected IR header", k.Name)
			}
			in := &input{kernel: k, lane: l, tail: text[len(head):]}
			body, err := json.Marshal(in.request(namePlaceholder))
			if err != nil {
				return nil, err
			}
			parts := bytes.Split(body, []byte(namePlaceholder))
			if len(parts) != 2 {
				return nil, fmt.Errorf("%s: request encodes the function name %d times", in, len(parts)-1)
			}
			in.pre, in.post = parts[0], parts[1]
			out = append(out, in)
		}
	}
	return out, nil
}

// namePlaceholder stands for the function name while a request is
// encoded once; function names need no escaping in JSON, so splicing a
// real name in its place gives the same body as encoding it.
const namePlaceholder = "perfbench_function_name"

func (in *input) String() string {
	return fmt.Sprintf("%s/%s/%s/RegN=%d", in.kernel.Name, in.lane.scheme, in.lane.alloc, in.lane.regN)
}

func (in *input) source(name string) string { return "func " + name + in.tail }

// body appends in's request body under name to buf.
func (in *input) body(buf []byte, name string) []byte {
	return append(append(append(buf, in.pre...), name...), in.post...)
}

func (in *input) request(name string) service.Request {
	return service.Request{
		IR:     in.source(name),
		Scheme: string(in.lane.scheme),
		RegN:   in.lane.regN,
		Alloc:  string(in.lane.alloc),
	}
}

// options are the facade options the service resolves for this input,
// with its serial remap and spill searches.
func (in *input) options() (diffra.Options, error) {
	o, err := diffra.Options{Scheme: in.lane.scheme, Alloc: in.lane.alloc, RegN: in.lane.regN}.Resolved()
	o.RemapWorkers, o.SpillWorkers = 1, 1
	return o, err
}

// check compares one reply with the oracle's values.
func (in *input) check(resp service.Response, status int, name string) error {
	w := in.want
	if status != http.StatusOK || resp.Error != "" {
		return fmt.Errorf("%s: status %d: %s", in, status, resp.Error)
	}
	if resp.Func != name || resp.Instrs != w.instrs || resp.SpillInstrs != w.spillInstrs ||
		resp.SetLastRegs != w.setLastRegs || resp.AllocBackend != w.allocBackend {
		return fmt.Errorf("%s: reply func=%s instrs=%d spill_instrs=%d set_last_regs=%d alloc=%s, want %s %d %d %d %s",
			in, resp.Func, resp.Instrs, resp.SpillInstrs, resp.SetLastRegs, resp.AllocBackend,
			name, w.instrs, w.spillInstrs, w.setLastRegs, w.allocBackend)
	}
	return nil
}

// checkInputs is the correctness oracle. Every distinct input is
// compiled through the facade and checked with difftest.CheckCompiled
// (reference interpreter against the allocated code and both
// stream-decode models), then simulated on the low-end pipeline, which
// must reproduce the kernel's reference result. The compile's counts
// and cycles become the values every served reply must repeat.
func checkInputs(inputs []*input) error {
	mach, err := pipeline.New(pipeline.LowEnd())
	if err != nil {
		return err
	}
	refResult := map[string]int64{}
	for _, in := range inputs {
		k := in.kernel
		f, err := ir.Parse(in.source(k.F.Name))
		if err != nil {
			return fmt.Errorf("%s: %w", in, err)
		}
		want, ok := refResult[k.Name]
		if !ok {
			if want, _, err = mach.Run(f, nil, pipeline.RunOptions{Args: k.Args, Mem: k.Mem}); err != nil {
				return fmt.Errorf("%s: reference simulation: %w", in, err)
			}
			refResult[k.Name] = want
		}
		opts, err := in.options()
		if err != nil {
			return fmt.Errorf("%s: %w", in, err)
		}
		res, err := diffra.CompileFunc(f, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", in, err)
		}
		argLive := liveness.LiveParams(f)
		if err := difftest.CheckCompiled(f, res, difftest.RunSpec{Args: k.Args, Mem: k.Mem, ArgLive: argLive}); err != nil {
			return fmt.Errorf("%s: %w", in, err)
		}
		got, st, err := mach.Run(res.F, res.Assignment, pipeline.RunOptions{
			Args: k.Args, OrigParams: f.Params, Mem: k.Mem, ArgLive: argLive,
		})
		if err != nil {
			return fmt.Errorf("%s: simulation: %w", in, err)
		}
		if got != want {
			return fmt.Errorf("%s: simulated result %d, reference %d", in, got, want)
		}
		in.want = expected{res.Instrs, res.SpillInstrs, res.SetLastRegs, string(res.AllocBackend), st.Cycles}
	}
	return nil
}

// sumExpected totals the oracle's counts over a distinct set.
func sumExpected(inputs []*input) expected {
	var s expected
	for _, in := range inputs {
		s.instrs += in.want.instrs
		s.spillInstrs += in.want.spillInstrs
		s.setLastRegs += in.want.setLastRegs
		s.cycles += in.want.cycles
	}
	return s
}
