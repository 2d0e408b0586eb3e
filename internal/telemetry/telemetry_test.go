package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed step on every reading, making span
// durations deterministic for golden tests.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		now := t
		t = t.Add(step)
		return now
	}
}

func TestNilTracerIsFree(t *testing.T) {
	var tr *Tracer
	s := tr.Start("root")
	if s != nil {
		t.Fatalf("nil tracer produced non-nil span")
	}
	// Every operation on the nil span must be a no-op, not a panic.
	c := s.Child("child")
	c.SetAttr("k", 1)
	c.Add("n", 2)
	c.AddFloat("f", 0.5)
	c.End()
	s.End()
	if got := s.Counter("n"); got != 0 {
		t.Fatalf("nil span counter = %v", got)
	}
	if s.Find("child") != nil {
		t.Fatalf("nil span Find returned non-nil")
	}
}

func TestSpanNesting(t *testing.T) {
	sink := &CollectSink{}
	tr := NewWithClock(sink, fakeClock(time.Millisecond))

	root := tr.Start("compile")
	root.SetAttr("scheme", "coalesce")
	alloc := root.Child("allocate")
	live := alloc.Child("liveness")
	live.Add("iterations", 3)
	live.End()
	alloc.Add("rounds", 1)
	alloc.Add("rounds", 1)
	alloc.End()
	enc := root.Child("encode")
	enc.End()
	root.End()

	got := sink.Last()
	if got == nil {
		t.Fatal("root never emitted")
	}
	if got.Name != "compile" || len(got.Children) != 2 {
		t.Fatalf("root = %q with %d children, want compile with 2", got.Name, len(got.Children))
	}
	if got.Children[0].Name != "allocate" || got.Children[1].Name != "encode" {
		t.Fatalf("children = %q, %q", got.Children[0].Name, got.Children[1].Name)
	}
	if got.Find("liveness") == nil {
		t.Fatal("liveness span not reachable from root")
	}
	if n := got.Find("allocate").Counter("rounds"); n != 2 {
		t.Fatalf("rounds = %v, want 2", n)
	}
	if got.Find("liveness").Dur <= 0 {
		t.Fatal("child span has no duration")
	}
	// Intermediate spans must not emit: only the root reaches the sink.
	if len(sink.Roots) != 1 {
		t.Fatalf("emitted %d roots, want 1", len(sink.Roots))
	}
	// Depth ordering via Walk.
	var names []string
	got.Walk(func(sp *Span, depth int) {
		names = append(names, strings.Repeat(">", depth)+sp.Name)
	})
	want := []string{"compile", ">allocate", ">>liveness", ">encode"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("walk order = %v, want %v", names, want)
	}
}

func TestEndIdempotent(t *testing.T) {
	sink := &CollectSink{}
	tr := NewWithClock(sink, fakeClock(time.Millisecond))
	root := tr.Start("op")
	root.End()
	d := root.Dur
	root.End()
	if root.Dur != d {
		t.Fatalf("second End changed duration: %v -> %v", d, root.Dur)
	}
	if len(sink.Roots) != 1 {
		t.Fatalf("emitted %d times, want 1", len(sink.Roots))
	}
}

func TestJSONSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := NewWithClock(&JSONSink{W: &buf}, fakeClock(time.Millisecond))

	root := tr.Start("compile")
	enc := root.Child("encode")
	enc.Add("sets", 4)
	enc.SetAttr("diffn", 8)
	enc.End()
	root.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSON lines, want 2:\n%s", len(lines), buf.String())
	}
	var r0, r1 spanRecord
	if err := json.Unmarshal([]byte(lines[0]), &r0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &r1); err != nil {
		t.Fatal(err)
	}
	if r0.Path != "compile" || r0.Depth != 0 {
		t.Fatalf("root record = %+v", r0)
	}
	if r1.Path != "compile/encode" || r1.Depth != 1 {
		t.Fatalf("child record = %+v", r1)
	}
	if r1.Counters["sets"] != 4 || r1.Attrs["diffn"] != float64(8) {
		t.Fatalf("child payload = %+v", r1)
	}
	if r1.StartUS != 1000 || r1.DurUS != 1000 {
		t.Fatalf("child timing = start %d dur %d, want 1000/1000", r1.StartUS, r1.DurUS)
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Counter("compiles").Add(3)
	r.Counter("compiles").Inc()
	r.Gauge("last_regn").Set(12)
	h := r.Histogram("compile_us")
	for _, v := range []int64{1, 2, 3, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if s.Counters["compiles"] != 4 {
		t.Fatalf("counter = %d", s.Counters["compiles"])
	}
	if s.Gauges["last_regn"] != 12 {
		t.Fatalf("gauge = %d", s.Gauges["last_regn"])
	}
	hs := s.Histograms["compile_us"]
	if hs.Count != 4 || hs.Sum != 106 || hs.Min != 1 || hs.Max != 100 {
		t.Fatalf("histogram = %+v", hs)
	}
	if m := hs.Mean(); m < 26.4 || m > 26.6 {
		t.Fatalf("mean = %v", m)
	}

	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"counter", "compiles", "gauge", "last_regn", "histogram", "compile_us", "count=4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryConcurrent exercises concurrent metric updates; run
// under -race it is the data-race check for the registry.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("ops").Inc()
				r.Gauge("last").Set(int64(id))
				r.Histogram("lat").Observe(int64(i % 17))
				if i%97 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["ops"] != workers*perWorker {
		t.Fatalf("ops = %d, want %d", s.Counters["ops"], workers*perWorker)
	}
	if s.Histograms["lat"].Count != workers*perWorker {
		t.Fatalf("histogram count = %d", s.Histograms["lat"].Count)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1024, 11}}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}
