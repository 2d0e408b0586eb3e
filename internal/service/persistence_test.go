package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diffra/internal/cache"
)

// TestDiskCacheSurvivesRestart is the acceptance check for the
// persistent tier: a freshly constructed Server pointed at the same
// CacheDir serves the previous process's compile from disk — zero
// recompiles — and the payload is byte-for-byte what the first
// process produced.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := Request{IR: tinyIR, Scheme: "select", Listing: true}

	s1 := newTestServer(t, Config{CacheDir: dir})
	first := s1.Compile(context.Background(), req)
	if first.Error != "" || first.Cached {
		t.Fatalf("seed compile: %+v", first)
	}

	// "Restart": a brand-new Server (fresh registry, empty memory LRU)
	// over the same directory.
	s2 := newTestServer(t, Config{CacheDir: dir})
	second := s2.Compile(context.Background(), req)
	if second.Error != "" {
		t.Fatalf("post-restart compile: %+v", second)
	}
	if !second.Cached {
		t.Fatal("disk tier did not survive the restart")
	}
	// Identical payload modulo the Cached marker.
	first.Cached = true
	if first != second {
		t.Fatalf("disk hit diverged from original:\n  was %+v\n  got %+v", first, second)
	}
	reg := s2.Registry()
	if n := reg.Counter("service_compiles_total").Value(); n != 0 {
		t.Fatalf("restarted server ran %d compiles, want 0", n)
	}
	if n := reg.CounterL("service_cache_tier_hits", "tier", "disk").Value(); n != 1 {
		t.Fatalf("disk tier hits = %d, want 1", n)
	}

	// A third request on the same server must now come from memory:
	// the disk hit was promoted into the LRU.
	third := s2.Compile(context.Background(), req)
	if !third.Cached {
		t.Fatal("promoted entry missing from memory tier")
	}
	if n := reg.CounterL("service_cache_tier_hits", "tier", "mem").Value(); n != 1 {
		t.Fatalf("mem tier hits = %d, want 1", n)
	}
}

// TestDiskHitPromotesToMemory: memory is read before disk, and a disk
// hit is copied into memory. On a warm server a repeat never reaches
// the disk; after a restart the first repeat is a disk hit and the
// next a memory hit.
func TestDiskHitPromotesToMemory(t *testing.T) {
	dir := t.TempDir()
	req := Request{IR: tinyIR, Scheme: "select"}

	s1 := newTestServer(t, Config{CacheDir: dir})
	for i := 0; i < 2; i++ {
		if resp := s1.Compile(context.Background(), req); resp.Error != "" || resp.Cached != (i > 0) {
			t.Fatalf("warm request %d: %+v", i, resp)
		}
	}
	reg := s1.Registry()
	if n := reg.CounterL("service_cache_tier_hits", "tier", "mem").Value(); n != 1 {
		t.Fatalf("warm: mem tier hits = %d, want 1", n)
	}
	if n := reg.Histogram("service_disk_cache_get_us").Snapshot().Count; n != 1 {
		t.Fatalf("warm: %d lookups reached the disk, want the first request's 1", n)
	}

	s2 := newTestServer(t, Config{CacheDir: dir})
	for i, tier := range []string{"disk", "mem"} {
		if resp := s2.Compile(context.Background(), req); resp.Error != "" || !resp.Cached {
			t.Fatalf("restart request %d: %+v", i, resp)
		}
		if n := s2.Registry().CounterL("service_cache_tier_hits", "tier", tier).Value(); n != 1 {
			t.Fatalf("restart request %d: %s tier hits = %d, want 1", i, tier, n)
		}
	}
	if n := s2.Registry().Histogram("service_disk_cache_get_us").Snapshot().Count; n != 1 {
		t.Fatalf("restart: %d lookups reached the disk, want 1", n)
	}
}

// TestDiskEntryUndecodableIsCorruptMiss: a disk entry whose frame is
// intact but whose payload is not a Response is a miss, counted in
// service_disk_cache_corrupt and removed; the recompile replaces it.
func TestDiskEntryUndecodableIsCorruptMiss(t *testing.T) {
	dir := t.TempDir()
	req := Request{IR: tinyIR, Scheme: "select"}
	if resp := newTestServer(t, Config{CacheDir: dir}).Compile(context.Background(), req); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	d, err := cache.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Put(canonicalKey(t, req), []byte("not json"))

	s := newTestServer(t, Config{CacheDir: dir})
	if resp := s.Compile(context.Background(), req); resp.Error != "" || resp.Cached {
		t.Fatalf("undecodable entry served: %+v", resp)
	}
	s.cache.refreshGauges()
	reg := s.Registry()
	if n := reg.Gauge("service_disk_cache_corrupt").Value(); n != 1 {
		t.Fatalf("service_disk_cache_corrupt = %d, want 1", n)
	}
	if n := reg.Counter("service_compiles_total").Value(); n != 1 {
		t.Fatalf("service_compiles_total = %d, want 1", n)
	}
	if resp := newTestServer(t, Config{CacheDir: dir}).Compile(context.Background(), req); !resp.Cached {
		t.Fatal("the recompile did not replace the corrupt entry")
	}
}

// TestCacheTierAlone: either tier serves on its own. Without a
// CacheDir every hit is a memory hit; with the memory tier disabled
// every hit comes from disk.
func TestCacheTierAlone(t *testing.T) {
	for _, tc := range []struct {
		tier string
		cfg  Config
	}{
		{"mem", Config{}},
		{"disk", Config{CacheEntries: -1, CacheDir: t.TempDir()}},
	} {
		s := newTestServer(t, tc.cfg)
		for i := 0; i < 3; i++ {
			if resp := s.Compile(context.Background(), Request{IR: tinyIR}); resp.Error != "" || resp.Cached != (i > 0) {
				t.Fatalf("%s: request %d: %+v", tc.tier, i, resp)
			}
		}
		reg := s.Registry()
		if n := reg.CounterL("service_cache_tier_hits", "tier", tc.tier).Value(); n != 2 {
			t.Fatalf("%s: %d %s-tier hits, want 2", tc.tier, n, tc.tier)
		}
		if n := reg.Counter("service_cache_hits").Value(); n != 2 {
			t.Fatalf("%s: %d hits, want 2", tc.tier, n)
		}
	}
}

// TestAccessLogCompleteAfterDrain pins the buffered access log's
// durability contract: after a graceful Shutdown (the SIGTERM path in
// cmd/diffrad), every request served — including one still in flight
// when the drain began — has a complete, parseable NDJSON line in the
// log file. Nothing may be lost in the bufio layer.
func TestAccessLogCompleteAfterDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "access.ndjson")
	logf, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHTTP(Config{AccessLog: logf})
	if err != nil {
		t.Fatal(err)
	}
	l := newLocalListener(t)
	done := make(chan error, 1)
	go func() { done <- h.Serve(l) }()
	base := "http://" + l.Addr().String()

	const fast = 3
	for i := 0; i < fast; i++ {
		ir := strings.Replace(tinyIR, "func tiny", fmt.Sprintf("func tiny%d", i), 1)
		if code, resp := postCompileURL(base, Request{IR: ir, Scheme: "select"}); code != http.StatusOK {
			t.Fatalf("warm request %d: %d %+v", i, code, resp)
		}
	}

	// One request still compiling when Shutdown starts.
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
	if resp := <-respc; resp.Error != "" {
		t.Fatalf("in-flight request lost: %s", resp.Error)
	}
	if err := logf.Close(); err != nil {
		t.Fatal(err)
	}

	// The dead server's log must account for every request, each line
	// complete JSON.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	funcs := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec struct {
			Path string `json:"path"`
			Func string `json:"func"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("torn access-log line %q: %v", sc.Text(), err)
		}
		funcs[rec.Func] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fast; i++ {
		if name := fmt.Sprintf("tiny%d", i); !funcs[name] {
			t.Errorf("request %s missing from drained log (have %v)", name, funcs)
		}
	}
	if !funcs["slow"] {
		t.Errorf("in-flight request missing from drained log (have %v)", funcs)
	}
}
