package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"diffra/internal/ir"
	"diffra/internal/workloads"
)

// tinyRespelled is tinyIR with blank lines, a comment and different
// indentation: another source text for the same canonical function.
const tinyRespelled = `func tiny(v0) {

entry:
	v1 = li 1 ; one
      v2 = add v0, v1

  ret v2
}
`

// aliasOf returns the canonical key s has recorded for req's source
// text.
func aliasOf(t *testing.T, s *Server, req Request) (string, bool) {
	t.Helper()
	opts, err := Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	return s.cache.canonical(sourceKey(req.IR, opts, req.Listing, req.Explain))
}

// canonicalKey is the CacheKey a server files req's compile under.
func canonicalKey(t *testing.T, req Request) string {
	t.Helper()
	opts, err := Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	return CacheKey(ir.MustParse(req.IR), opts, req.Listing, req.Explain)
}

// sameAnswer fails unless got is want apart from the Cached marker.
func sameAnswer(t *testing.T, label string, got, want Response) {
	t.Helper()
	got.Cached, want.Cached = false, false
	if got != want {
		t.Fatalf("%s: answer diverged:\n  want %+v\n  got  %+v", label, want, got)
	}
}

// TestSourceKeyServesOtherSpellings: a text that prints like a cached
// function is served from the canonical entry on first sight, with the
// same response, and is aliased from then on; the first spelling gets
// its own alias on its own second sight.
func TestSourceKeyServesOtherSpellings(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	base := Request{IR: tinyIR, Scheme: "select"}
	other := Request{IR: tinyRespelled, Scheme: "select"}
	key := canonicalKey(t, base)
	if got := canonicalKey(t, other); got != key {
		t.Fatalf("respelled text keys %s, want the canonical %s", got, key)
	}

	first := s.Compile(ctx, base)
	if first.Error != "" || first.Cached {
		t.Fatalf("first compile: %+v", first)
	}
	if n := s.cache.aliases.Len(); n != 0 {
		t.Fatalf("a miss wrote %d aliases", n)
	}
	for i := 0; i < 2; i++ {
		resp := s.Compile(ctx, other)
		if !resp.Cached {
			t.Fatalf("respelled request %d missed the canonical entry", i)
		}
		sameAnswer(t, "respelled", resp, first)
	}
	if got, ok := aliasOf(t, s, other); !ok || got != key {
		t.Fatalf("respelled text aliases %q (%v), want %s", got, ok, key)
	}
	if _, ok := aliasOf(t, s, base); ok {
		t.Fatal("the first spelling was aliased on its first sight")
	}
	if resp := s.Compile(ctx, base); !resp.Cached {
		t.Fatal("repeat of the first spelling missed")
	}
	if got, ok := aliasOf(t, s, base); !ok || got != key {
		t.Fatalf("first spelling aliases %q (%v), want %s", got, ok, key)
	}
	if n := s.cache.aliases.Len(); n != 2 {
		t.Fatalf("%d aliases, want one per spelling", n)
	}
	if n := s.Registry().Counter("service_compiles_total").Value(); n != 1 {
		t.Fatalf("%d compiles, want 1", n)
	}
}

// TestSourceKeyOneEntryAlternating: with room for one entry and one
// alias, two functions take turns evicting each other, and an alias
// whose entry is gone falls through to a compile. Every request still
// gets its function's answer.
func TestSourceKeyOneEntryAlternating(t *testing.T) {
	s := newTestServer(t, Config{CacheEntries: 1})
	ctx := context.Background()
	reqs := map[byte]Request{
		'A': {IR: tinyIR, Scheme: "select"},
		'B': {IR: strings.Replace(tinyIR, "li 1", "li 2", 1), Scheme: "select"},
	}
	ref := newTestServer(t, Config{CacheEntries: -1})
	want := map[byte]Response{}
	for name, req := range reqs {
		want[name] = ref.Compile(ctx, req)
	}
	// The second A is the first alias; the fourth A finds it but not
	// its entry, which B evicted, and compiles.
	const order = "AABAABBAB"
	const cached = "-+--+-+--"
	for i := range order {
		resp := s.Compile(ctx, reqs[order[i]])
		label := fmt.Sprintf("request %d (%c)", i, order[i])
		sameAnswer(t, label, resp, want[order[i]])
		if resp.Cached != (cached[i] == '+') {
			t.Fatalf("%s: cached=%v, want %c", label, resp.Cached, cached[i])
		}
	}
	if n := s.Registry().Counter("service_compiles_total").Value(); n != 6 {
		t.Fatalf("%d compiles, want 6", n)
	}
}

// TestSourceKeyNeverAliasesFailures: requests that fail to parse, to
// resolve their options or to compile leave no alias, however often
// they repeat.
func TestSourceKeyNeverAliasesFailures(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	susan := workloads.KernelByName("susan").F.String()
	for _, req := range []Request{
		{IR: "not ir at all"},
		{IR: tinyIR, Scheme: "no-such-scheme"},
		{IR: tinyIR, Scheme: "select", RegN: 4, DiffN: 9},
		// A million restarts cannot finish in a millisecond.
		{IR: susan, Scheme: "select", Restarts: 1 << 20, TimeoutMs: 1},
	} {
		for i := 0; i < 3; i++ {
			if resp := s.Compile(ctx, req); resp.Error == "" || resp.Cached {
				t.Fatalf("%q/%s: %+v", req.IR[:min(len(req.IR), 20)], req.Scheme, resp)
			}
		}
	}
	if n := s.cache.aliases.Len(); n != 0 {
		t.Fatalf("failed requests left %d aliases", n)
	}
	if n := s.Registry().Counter("service_cache_hits").Value(); n != 0 {
		t.Fatalf("failed requests hit the cache %d times", n)
	}
}

// TestSourceKeyCoversResolvedOptions: the source key hashes every
// resolved option the canonical key does, the backend an empty alloc
// resolves to included, and nothing else — not the timeout, not the
// worker counts.
func TestSourceKeyCoversResolvedOptions(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	base := Request{IR: tinyIR, Scheme: "select"}
	for i := 0; i < 2; i++ {
		if resp := s.Compile(ctx, base); resp.Error != "" {
			t.Fatal(resp.Error)
		}
	}
	if _, ok := aliasOf(t, s, base); !ok {
		t.Fatal("no alias after a repeat")
	}
	for _, tc := range []struct {
		name string
		edit func(*Request)
		hit  bool
	}{
		{"timeout", func(r *Request) { r.TimeoutMs = 5000 }, true},
		{"explicit preferred alloc", func(r *Request) { r.Alloc = "irc" }, true},
		{"explicit default geometry", func(r *Request) { r.RegN, r.DiffN, r.Restarts = 12, 8, 1000 }, true},
		{"listing", func(r *Request) { r.Listing = true }, false},
		{"explain", func(r *Request) { r.Explain = true }, false},
		{"scheme", func(r *Request) { r.Scheme = "remapping" }, false},
		{"regn", func(r *Request) { r.RegN = 16 }, false},
		{"diffn", func(r *Request) { r.DiffN = 4 }, false},
		{"restarts", func(r *Request) { r.Restarts = 10 }, false},
		{"alloc", func(r *Request) { r.Alloc = "ssa" }, false},
	} {
		req := base
		tc.edit(&req)
		aliases := s.cache.aliases.Len()
		if resp := s.Compile(ctx, req); resp.Error != "" || resp.Cached != tc.hit {
			t.Errorf("%s: cached=%v error=%q, want cached=%v", tc.name, resp.Cached, resp.Error, tc.hit)
		}
		if _, ok := aliasOf(t, s, req); ok != tc.hit {
			t.Errorf("%s: aliased=%v, want %v", tc.name, ok, tc.hit)
		}
		if n := s.cache.aliases.Len(); n != aliases {
			t.Errorf("%s: %d aliases after the request, %d before", tc.name, n, aliases)
		}
	}

	// A server searching in parallel finds the serial server's entry.
	dir := t.TempDir()
	newTestServer(t, Config{CacheDir: dir}).Compile(ctx, base)
	if resp := newTestServer(t, Config{CacheDir: dir, RemapWorkers: 4, SpillWorkers: 3}).Compile(ctx, base); !resp.Cached {
		t.Errorf("worker counts changed the key: %+v", resp)
	}
}

// TestSourceKeyOffWithMemoryTier: with the memory tier disabled no
// alias is kept, and every repeat compiles.
func TestSourceKeyOffWithMemoryTier(t *testing.T) {
	s := newTestServer(t, Config{CacheEntries: -1})
	for i := 0; i < 3; i++ {
		if resp := s.Compile(context.Background(), Request{IR: tinyIR}); resp.Error != "" || resp.Cached {
			t.Fatalf("request %d: %+v", i, resp)
		}
	}
	if n := s.cache.aliases.Len(); n != 0 {
		t.Fatalf("%d aliases with the memory tier off", n)
	}
}

// TestSourceKeyAfterRestart: aliases live in memory only, so a
// restarted server over the same disk tier parses and keys the first
// repeat, finds it on disk, and serves the next one through the alias
// from memory.
func TestSourceKeyAfterRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := Request{IR: tinyIR, Scheme: "select"}
	s1 := newTestServer(t, Config{CacheDir: dir})
	first := s1.Compile(ctx, req)
	if first.Error != "" {
		t.Fatal(first.Error)
	}
	s1.Compile(ctx, req)

	s2 := newTestServer(t, Config{CacheDir: dir})
	if _, ok := aliasOf(t, s2, req); ok {
		t.Fatal("an alias survived the restart")
	}
	reg := s2.Registry()
	for i, tier := range []string{"disk", "mem"} {
		resp := s2.Compile(ctx, req)
		if !resp.Cached {
			t.Fatalf("repeat %d after the restart missed", i)
		}
		sameAnswer(t, "after restart", resp, first)
		if n := reg.CounterL("service_cache_tier_hits", "tier", tier).Value(); n != 1 {
			t.Fatalf("repeat %d: %d %s-tier hits, want 1", i, n, tier)
		}
		if got, ok := aliasOf(t, s2, req); !ok || got != canonicalKey(t, req) {
			t.Fatalf("repeat %d left alias %q (%v)", i, got, ok)
		}
	}
	if n := reg.Counter("service_compiles_total").Value(); n != 0 {
		t.Fatalf("restarted server compiled %d times", n)
	}
}

// TestSourceKeyConcurrentClients: clients share a server too small for
// the working set, so entries and aliases are evicted while others
// read them; every answer must still be its own request's. Run it
// under -race.
func TestSourceKeyConcurrentClients(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, CacheEntries: 4})
	ref := newTestServer(t, Config{CacheEntries: -1})
	ctx := context.Background()
	var reqs []Request
	for i := 1; i <= 3; i++ {
		for _, src := range []string{tinyIR, tinyRespelled} {
			text := strings.Replace(src, "li 1", fmt.Sprintf("li %d", i), 1)
			for _, scheme := range []string{"select", "baseline"} {
				reqs = append(reqs, Request{IR: text, Scheme: scheme})
			}
		}
	}
	want := make([]Response, len(reqs))
	for i, req := range reqs {
		if want[i] = ref.Compile(ctx, req); want[i].Error != "" {
			t.Fatal(want[i].Error)
		}
	}
	const clients, perClient = 4, 60
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				j := (c*7 + i*(c+1)) % len(reqs)
				got := s.Compile(ctx, reqs[j])
				got.Cached = false
				if got != want[j] {
					errs <- fmt.Sprintf("client %d request %d (%d): got %+v, want %+v", c, i, j, got, want[j])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if s.Registry().Counter("service_cache_hits").Value() == 0 {
		t.Error("no request hit the cache")
	}
}
