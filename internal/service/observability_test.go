package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"diffra/internal/telemetry"
	"diffra/internal/workloads"
)

func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestHTTP(t)
	if _, resp := postCompile(t, ts.URL, Request{IR: tinyIR, Scheme: "select"}); resp.Error != "" {
		t.Fatal(resp.Error)
	}

	// Default stays JSON (the PR 2 contract).
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if ct := mr.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default content type %q", ct)
	}
	var snap struct {
		Counters   map[string]int64                       `json:"counters"`
		Histograms map[string]telemetry.HistogramSnapshot `json:"histograms"`
	}
	if err := json.NewDecoder(mr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	h, ok := snap.Histograms["service_compile_us"]
	if !ok || h.Count == 0 || len(h.Buckets) == 0 {
		t.Fatalf("JSON snapshot missing histogram buckets: %+v", h)
	}
	if h.P50 <= 0 || h.P99 < h.P50 {
		t.Fatalf("JSON snapshot quantiles wrong: %+v", h)
	}

	// Accept: text/plain negotiates the Prometheus exposition.
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	pr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	if ct := pr.Header.Get("Content-Type"); ct != telemetry.PrometheusContentType {
		t.Fatalf("prometheus content type %q", ct)
	}
	var body bytes.Buffer
	body.ReadFrom(pr.Body)
	text := body.String()
	for _, want := range []string{
		"# TYPE service_compile_us histogram",
		"service_compile_us_bucket{le=",
		`service_compile_us_bucket{le="+Inf"}`,
		"service_compile_us_p50",
		"service_compile_us_p95",
		"service_compile_us_p99",
		"service_requests 1",
		"service_uptime_s",
		"service_goroutines",
		"service_heap_inuse_bytes",
		"service_gomaxprocs",
		"service_start_time_unix",
		`diffra_stage_us_bucket{scheme="select",stage="remap"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, text)
		}
	}

	// ?format=prometheus works without the header.
	qr, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer qr.Body.Close()
	if ct := qr.Header.Get("Content-Type"); ct != telemetry.PrometheusContentType {
		t.Fatalf("?format=prometheus content type %q", ct)
	}
}

// TestServersKeepTheirOwnMetrics: a server built with a nil Registry
// gets one of its own, and a compile reports only through its span
// tree, which the server's bridge folds into that registry. So two
// servers in one process each hold exactly their own compile, and
// neither holds a series of the former process-wide registry.
func TestServersKeepTheirOwnMetrics(t *testing.T) {
	kernels := []string{"sha", "susan"}
	servers := make([]*Server, len(kernels))
	for i := range servers {
		s, err := New(Config{}) // nil Registry
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
	}
	for i, name := range kernels {
		resp := servers[i].Compile(context.Background(), Request{
			IR:     workloads.KernelByName(name).F.String(),
			Scheme: "coalesce",
			RegN:   6,
			DiffN:  4,
		})
		if resp.Error != "" {
			t.Fatalf("%s: %s", name, resp.Error)
		}
		counters := servers[i].Registry().Snapshot().Counters
		if got := counters["diffra_span_compile_instrs"]; got != int64(resp.Instrs) {
			t.Errorf("%s: diffra_span_compile_instrs = %d, response instrs %d", name, got, resp.Instrs)
		}
		if _, ok := counters["diffra_span_ilp_steal_epochs"]; !ok {
			t.Errorf("%s: no diffra_span_ilp_steal_epochs: the ilp span was not bridged", name)
		}
		for _, retired := range []string{"diffra_instrs", "diffra_compiles", "ilp_steal_epochs"} {
			if v, ok := counters[retired]; ok {
				t.Errorf("%s: registry holds %s = %d", name, retired, v)
			}
		}
	}
	if servers[0].Registry() == servers[1].Registry() {
		t.Fatal("two servers share one registry")
	}
}

func TestDebugTracesEndpoints(t *testing.T) {
	_, ts := newTestHTTP(t)
	if _, resp := postCompile(t, ts.URL, Request{IR: tinyIR, Scheme: "select"}); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	postCompile(t, ts.URL, Request{IR: "garbage"}) // an errored request

	tr, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var idx struct {
		Traces []struct {
			ID      int64  `json:"id"`
			Func    string `json:"func"`
			DurUS   int64  `json:"dur_us"`
			Error   string `json:"error"`
			Spans   int    `json:"spans"`
			QueueUS *int64 `json:"queue_us"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Traces) != 2 {
		t.Fatalf("retained %d traces, want 2", len(idx.Traces))
	}
	var okID int64 = -1
	seenErr := false
	for _, e := range idx.Traces {
		if e.Error != "" {
			seenErr = true
		} else {
			okID = e.ID
			if e.Func != "tiny" || e.Spans == 0 || e.DurUS <= 0 {
				t.Fatalf("successful trace summary incomplete: %+v", e)
			}
			if e.QueueUS == nil {
				t.Fatalf("trace summary missing queue_us: %+v", e)
			}
		}
	}
	if !seenErr || okID < 0 {
		t.Fatalf("trace index must retain the errored and the ok request: %+v", idx.Traces)
	}

	dr, err := http.Get(fmt.Sprintf("%s/debug/traces/%d", ts.URL, okID))
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	var detail struct {
		ID   int64               `json:"id"`
		Root *telemetry.SpanJSON `json:"root"`
	}
	if err := json.NewDecoder(dr.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	if detail.ID != okID || detail.Root == nil || detail.Root.Name != "compile" {
		t.Fatalf("trace detail %+v", detail)
	}
	stages := map[string]bool{}
	for _, c := range detail.Root.Children {
		stages[c.Name] = true
	}
	for _, want := range []string{"allocate", "remap", "verify", "encode", "check"} {
		if !stages[want] {
			t.Fatalf("span tree missing stage %q (have %v)", want, stages)
		}
	}

	nf, err := http.Get(ts.URL + "/debug/traces/999999")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace id: status %s, want 404", nf.Status)
	}
	bad, err := http.Get(ts.URL + "/debug/traces/xyz")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed trace id: status %s, want 400", bad.Status)
	}
}

func TestDebugHandlerServesPprofAndTraces(t *testing.T) {
	h, err := NewHTTP(Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := h.Compile(context.Background(), Request{IR: tinyIR, Scheme: "select"})
	if srv.Error != "" {
		t.Fatal(srv.Error)
	}
	ds := httptest.NewServer(h.DebugHandler())
	defer ds.Close()
	for path, wantCT := range map[string]string{
		"/debug/pprof/":        "text/html",
		"/debug/traces":        "application/json",
		"/metrics":             "application/json",
		"/debug/pprof/cmdline": "text/plain",
	} {
		resp, err := http.Get(ds.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %s", path, resp.Status)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, wantCT) {
			t.Fatalf("%s: content type %q, want %q", path, ct, wantCT)
		}
	}
}

// TestHealthzDrainingDuringShutdown pins the load-balancer contract:
// the moment graceful shutdown begins, /healthz flips to 503
// "draining" while the in-flight compile still completes.
func TestHealthzDrainingDuringShutdown(t *testing.T) {
	h, err := NewHTTP(Config{})
	if err != nil {
		t.Fatal(err)
	}
	l := newLocalListener(t)
	done := make(chan error, 1)
	go func() { done <- h.Serve(l) }()
	base := "http://" + l.Addr().String()

	hr, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("pre-shutdown healthz: %s", hr.Status)
	}

	respc := make(chan Response, 1)
	go func() {
		_, resp := postCompileURL(base, Request{IR: slowIR(3, 12), Scheme: "ospill", RegN: 6})
		respc <- resp
	}()
	time.Sleep(50 * time.Millisecond)

	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdownDone <- h.Shutdown(sctx)
	}()

	// Draining must flip promptly once Shutdown is underway; probe the
	// handler directly (the shared listener stops accepting new
	// connections, but a dedicated health port would serve this same
	// handler).
	deadline := time.Now().Add(5 * time.Second)
	for !h.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rw := httptest.NewRecorder()
	h.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/healthz", nil))
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", rw.Code)
	}
	if body := strings.TrimSpace(rw.Body.String()); body != "draining" {
		t.Fatalf("draining healthz body %q, want \"draining\"", body)
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if resp := <-respc; resp.Error != "" {
		t.Fatalf("in-flight request dropped while draining: %s", resp.Error)
	}
}

// TestCaptureEquivalence pins that always-on trace capture never
// changes what the compiler produces: the same request through a
// capturing server and a capture-disabled server yields a
// field-identical Response.
func TestCaptureEquivalence(t *testing.T) {
	on := newTestServer(t, Config{})
	off := newTestServer(t, Config{TraceBuffer: -1})
	for _, req := range []Request{
		{IR: tinyIR, Scheme: "select"},
		{IR: tinyIR, Scheme: "coalesce", RegN: 8, DiffN: 4, Listing: true, Explain: true},
		{IR: tinyIR, Scheme: "ospill", RegN: 6},
		{IR: "garbage"},
	} {
		a := on.Compile(context.Background(), req)
		b := off.Compile(context.Background(), req)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("capture changed the response for %+v:\nwith:    %+v\nwithout: %+v", req, a, b)
		}
	}
	if len(on.Traces()) == 0 {
		t.Fatal("capturing server retained no traces")
	}
	if off.Traces() != nil {
		t.Fatal("capture-disabled server retained traces")
	}
}

func TestAccessLogNDJSON(t *testing.T) {
	var buf bytes.Buffer
	srv := newTestServer(t, Config{AccessLog: &buf})
	if r := srv.Compile(context.Background(), Request{IR: tinyIR, Scheme: "select"}); r.Error != "" {
		t.Fatal(r.Error)
	}
	srv.Compile(context.Background(), Request{IR: tinyIR, Scheme: "select"}) // cache hit
	srv.Compile(context.Background(), Request{IR: "garbage"})
	// The writer is buffered; readers see complete lines after a flush
	// (Shutdown does this on the daemon's SIGTERM path).
	if err := srv.FlushAccessLog(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("access log line not JSON: %v (%s)", err, sc.Text())
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("access log has %d lines, want 3", len(lines))
	}
	first := lines[0]
	if first["func"] != "tiny" || first["scheme"] != "select" {
		t.Fatalf("first line %v", first)
	}
	if _, ok := first["stages_us"].(map[string]any); !ok {
		t.Fatalf("first line missing stage timings: %v", first)
	}
	if first["cached"] != false || lines[1]["cached"] != true {
		t.Fatalf("cache attribution wrong: %v / %v", first["cached"], lines[1]["cached"])
	}
	if lines[2]["error"] == "" || lines[2]["error"] == nil {
		t.Fatalf("errored request not logged: %v", lines[2])
	}
	if _, ok := first["ts"].(string); !ok {
		t.Fatalf("missing timestamp: %v", first)
	}
}
