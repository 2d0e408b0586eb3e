package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func newLocalListener(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func newTestHTTP(t *testing.T) (*HTTPServer, *httptest.Server) {
	t.Helper()
	return newTestHTTPWith(t, Config{})
}

func newTestHTTPWith(t *testing.T, cfg Config) (*HTTPServer, *httptest.Server) {
	t.Helper()
	h, err := NewHTTP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h.Handler())
	t.Cleanup(ts.Close)
	return h, ts
}

func postCompile(t *testing.T, url string, req Request) (*http.Response, Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("decode (%s): %v", hr.Status, err)
	}
	return hr, resp
}

func TestHTTPCompileAndMetrics(t *testing.T) {
	_, ts := newTestHTTP(t)

	hr, resp := postCompile(t, ts.URL, Request{IR: tinyIR, Scheme: "select"})
	if hr.StatusCode != http.StatusOK || resp.Error != "" {
		t.Fatalf("status %s, resp %+v", hr.Status, resp)
	}
	if resp.Func != "tiny" || resp.Instrs == 0 {
		t.Fatalf("unexpected response: %+v", resp)
	}

	// The identical repeat must be a cache hit, visible in /metrics.
	_, resp = postCompile(t, ts.URL, Request{IR: tinyIR, Scheme: "select"})
	if !resp.Cached {
		t.Fatal("repeat request was not served from cache")
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(mr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["service_cache_hits"] != 1 {
		t.Fatalf("metrics report %d cache hits, want 1 (%v)", snap.Counters["service_cache_hits"], snap.Counters)
	}
	if snap.Counters["service_requests"] != 2 {
		t.Fatalf("metrics report %d requests, want 2", snap.Counters["service_requests"])
	}
}

func TestHTTPStatusCodes(t *testing.T) {
	_, ts := newTestHTTP(t)

	hr, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %s, want 400", hr.Status)
	}

	hr, _ = postCompile(t, ts.URL, Request{IR: "garbage"})
	if hr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad IR: status %s, want 422", hr.Status)
	}

	hr, resp := postCompile(t, ts.URL, Request{
		IR: slowIR(4, 12), Scheme: "ospill", RegN: 6, TimeoutMs: 1,
	})
	if hr.StatusCode != http.StatusGatewayTimeout || !resp.Timeout {
		t.Fatalf("deadline: status %s, resp %+v, want 504/timeout", hr.Status, resp)
	}

	gr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %s", gr.Status)
	}

	// A body one byte over the configured limit is refused with 413
	// naming the limit; a body at the limit is read and compiled.
	const limit = 64
	_, small := newTestHTTPWith(t, Config{MaxRequestBytes: limit})
	for _, c := range []struct {
		size int
		want int
	}{{limit + 1, http.StatusRequestEntityTooLarge}, {limit, http.StatusUnprocessableEntity}} {
		body := `{"ir":"` + strings.Repeat("x", c.size-len(`{"ir":""}`)) + `"}`
		hr, err := http.Post(small.URL+"/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if hr.StatusCode != c.want {
			t.Fatalf("%d-byte body under a %d-byte limit: status %s (%s), want %d", len(body), limit, hr.Status, msg, c.want)
		}
		if c.want == http.StatusRequestEntityTooLarge && !strings.Contains(string(msg), "64-byte limit") {
			t.Fatalf("413 body %q does not name the limit", msg)
		}
	}
}

// TestHTTPCompileBodyIsOneValue: /compile takes one JSON value and
// whitespace, the bodies RouteKey keys, so a second value or trailing
// bytes are a bad request rather than dropped.
func TestHTTPCompileBodyIsOneValue(t *testing.T) {
	_, ts := newTestHTTP(t)
	one, err := json.Marshal(Request{IR: tinyIR, Scheme: "select"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, body string
		want       int
	}{
		{"two objects", string(one) + string(one), http.StatusBadRequest},
		{"object then garbage", string(one) + "garbage", http.StatusBadRequest},
		{"object then newline", string(one) + "\n", http.StatusOK},
	} {
		hr, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if hr.StatusCode != c.want {
			t.Fatalf("%s: status %s (%s), want %d", c.name, hr.Status, msg, c.want)
		}
	}
}

func TestHTTPBatchStreamsInOrder(t *testing.T) {
	h, ts := newTestHTTP(t)

	// Lines alternate between two schemes and one carries unparsable
	// IR: it fails on its own line while its neighbours compile.
	const n, bad = 6, 3
	schemes := []string{"select", "coalesce"}
	var in bytes.Buffer
	for i := 0; i < n; i++ {
		req := Request{
			IR:     strings.Replace(tinyIR, "func tiny", fmt.Sprintf("func tiny%d", i), 1),
			Scheme: schemes[i%2],
		}
		if i == bad {
			req.IR = "garbage"
		}
		if err := json.NewEncoder(&in).Encode(req); err != nil {
			t.Fatal(err)
		}
	}
	hr, err := http.Post(ts.URL+"/batch", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(hr.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	got := 0
	for ; sc.Scan(); got++ {
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatalf("line %d: %v", got, err)
		}
		if got == bad {
			if resp.Error == "" {
				t.Fatalf("line %d: garbage IR reported success", got)
			}
			continue
		}
		if resp.Error != "" {
			t.Fatalf("line %d: %s", got, resp.Error)
		}
		if want := fmt.Sprintf("tiny%d", got); resp.Func != want || resp.Scheme != schemes[got%2] {
			t.Fatalf("line %d: %s/%s, want %s/%s (responses out of order)",
				got, resp.Func, resp.Scheme, want, schemes[got%2])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("got %d responses, want %d", got, n)
	}
	if b := h.Registry().Counter("service_batches").Value(); b != 1 {
		t.Fatalf("service_batches = %d, want 1", b)
	}
}

// TestHTTPBatchReadsWhileAnswering: a client may send the next batch
// line only after it has read the answer to the last one. The server
// must keep reading the body after its first flushed response rather
// than discard what has not arrived yet.
func TestHTTPBatchReadsWhileAnswering(t *testing.T) {
	_, ts := newTestHTTP(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan struct{})
	go func() {
		enc := json.NewEncoder(pw)
		enc.Encode(Request{IR: tinyIR})
		select {
		case <-answered:
		case <-ctx.Done():
		}
		enc.Encode(Request{IR: tinyIR, Scheme: "baseline"})
		pw.Close()
	}()
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	sc := bufio.NewScanner(hr.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for i, scheme := range []string{"select", "baseline"} {
		if !sc.Scan() {
			t.Fatalf("line %d: stream ended: %v", i, sc.Err())
		}
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if resp.Error != "" || resp.Scheme != scheme {
			t.Fatalf("line %d: %+v, want a %s compile", i, resp, scheme)
		}
		if i == 0 {
			close(answered)
		}
	}
	if sc.Scan() {
		t.Fatalf("extra line %q", sc.Text())
	}
}

func TestHTTPGracefulShutdownDrains(t *testing.T) {
	h, err := NewHTTP(Config{})
	if err != nil {
		t.Fatal(err)
	}
	l := newLocalListener(t)
	done := make(chan error, 1)
	go func() { done <- h.Serve(l) }()
	base := "http://" + l.Addr().String()

	// Start a compile slow enough to still be in flight when Shutdown
	// begins; Shutdown must wait for it and the response arrive intact.
	// (Kept small: under -race the solve runs an order of magnitude
	// slower and still has to drain within the budget.)
	respc := make(chan Response, 1)
	go func() {
		_, resp := postCompileURL(base, Request{IR: slowIR(3, 12), Scheme: "ospill", RegN: 6})
		respc <- resp
	}()
	time.Sleep(50 * time.Millisecond)
	sctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	resp := <-respc
	if resp.Error != "" {
		t.Fatalf("in-flight request dropped during shutdown: %s", resp.Error)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

func postCompileURL(base string, req Request) (int, Response) {
	body, _ := json.Marshal(req)
	hr, err := http.Post(base+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, Response{Error: err.Error()}
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return hr.StatusCode, Response{Error: err.Error()}
	}
	return hr.StatusCode, resp
}

// TestNonDyadicWeightsFinishInsideDeadline: testdata/join3.ir's join
// block has three predecessors, so its cross-block adjacency edges
// weigh 10/3. At DiffN 1 every swap of the remapping search is worth
// exactly zero; a search that lets float drift make zero-gain swaps
// look negative cycles instead of stopping, holds its worker and
// answers 504. The request must come back inside its 2 s deadline.
func TestNonDyadicWeightsFinishInsideDeadline(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "join3.ir"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestHTTP(t)
	hr, resp := postCompile(t, ts.URL, Request{IR: string(src), Scheme: "remapping", RegN: 12, DiffN: 1, TimeoutMs: 2000})
	if hr.StatusCode != http.StatusOK || resp.Error != "" {
		t.Fatalf("status %s, error %q", hr.Status, resp.Error)
	}
	if resp.Func != "join3" || resp.Instrs == 0 {
		t.Fatalf("unexpected response: %+v", resp)
	}
}
