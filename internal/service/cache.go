package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"sync/atomic"
	"time"

	"diffra"
	"diffra/internal/cache"
	"diffra/internal/ir"
	"diffra/internal/telemetry"
)

// CacheKey derives the content address of a compile request: the
// SHA-256 of the function's canonical printing plus every resolved
// option that can change the output. Two requests producing the same
// key produce byte-identical responses, so the second is served from
// cache — and the cluster router routes on the same key, so identical
// IR always lands on the node that has it cached. Callers must pass
// *resolved* options (Options.Resolved) so a request spelling out the
// defaults and one leaving them zero share an entry. RemapWorkers and
// SpillWorkers are deliberately not hashed: both searches are
// deterministic at any worker count, so the worker setting never
// changes the response. The allocation backend IS hashed — explicit
// backends produce different code — but "auto" hashes as the literal
// string, not the per-request resolution: a deadline is not content,
// so two auto requests differing only in time budget share an entry
// (the resolved choice still travels in Response.AllocBackend). The
// disk tier adds cache.SchemaVersion on top of this key, so persisted
// entries from an incompatible binary can never satisfy it.
func CacheKey(f *ir.Func, opts diffra.Options, listing, explain bool) string {
	// The printing, then each option after a NUL, in one buffer hashed
	// once. Disk entries and the router's ring placement are keyed by
	// exactly these bytes; TestCacheKeyGolden pins them.
	var buf [2048]byte
	sum := sha256.Sum256(appendOptions(f.AppendTo(buf[:0]), opts, listing, explain))
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// sourceKey addresses a request by its IR text as it arrived: the
// SHA-256 of the raw text plus the options CacheKey hashes. It names
// one spelling of a function, so it only ever points at a canonical
// key (resultCache.canonical); spellings that print alike still share
// one entry.
func sourceKey(src string, opts diffra.Options, listing, explain bool) [sha256.Size]byte {
	var buf [2048]byte
	return sha256.Sum256(appendOptions(append(buf[:0], src...), opts, listing, explain))
}

// appendOptions appends each resolved option a key covers after a NUL.
// Scheme and backend names never contain a NUL, so the trailer cannot
// run into the text before it.
func appendOptions(b []byte, opts diffra.Options, listing, explain bool) []byte {
	b = append(append(b, 0), opts.Scheme...)
	b = strconv.AppendInt(append(b, 0), int64(opts.RegN), 10)
	b = strconv.AppendInt(append(b, 0), int64(opts.DiffN), 10)
	b = strconv.AppendInt(append(b, 0), int64(opts.Restarts), 10)
	b = strconv.AppendBool(append(b, 0), listing)
	b = strconv.AppendBool(append(b, 0), explain)
	return append(append(b, 0), opts.Alloc...)
}

// resultCache is the two-level compile-result cache: the per-node
// in-memory LRU above the optional persistent disk tier
// (Config.CacheDir), both keyed by CacheKey. A lookup reads memory
// first and promotes a disk hit into memory; a store writes through to
// both. Responses are plain values (no pointers into compiler state),
// so returning a cached copy is safe under concurrency, and they cross
// the disk boundary as JSON — the same encoding the HTTP layer serves.
//
// Beside the tiers, aliases maps a request's source key to the
// canonical key its text parsed to, so a repeat finds its entry
// without parsing or printing the function. It lives in memory only,
// under the memory tier's bound.
type resultCache struct {
	mem     *cache.LRU[Response]
	disk    *cache.Disk // nil: memory only
	aliases *cache.LRU[string]
	reg     *telemetry.Registry
	// memHits and diskHits keep each tier's service_cache_tier_hits
	// counter from its first hit on, so a hit builds no labeled name.
	memHits, diskHits atomic.Pointer[telemetry.Counter]
}

// newResultCache builds the cache. maxEntries bounds the memory tier
// and the aliases (<= 0 disables both); dir, when non-empty, enables
// the disk tier bounded to diskBytes (0: the cache package default).
func newResultCache(maxEntries int, dir string, diskBytes int64, reg *telemetry.Registry) (*resultCache, error) {
	c := &resultCache{
		mem:     cache.NewLRU[Response](maxEntries),
		aliases: cache.NewLRU[string](maxEntries),
		reg:     reg,
	}
	if dir != "" {
		disk, err := cache.OpenDisk(dir, diskBytes)
		if err != nil {
			return nil, err
		}
		c.disk = disk
	}
	return c, nil
}

// get looks a key up, memory first, and records per-tier metrics:
// service_cache_hits counts a hit in either tier (the PR 2 counter,
// unchanged for existing dashboards), service_cache_tier_hits{tier=...}
// attributes it, and a lookup that reaches the disk lands in
// service_disk_cache_get_us. A disk entry that does not decode is
// marked corrupt and is a miss, like a damaged file.
func (c *resultCache) get(key string) (Response, bool) {
	if resp, ok := c.mem.Get(key); ok {
		c.tierHit(&c.memHits, "mem").Inc()
		return resp, true
	}
	if c.disk == nil {
		return Response{}, false
	}
	start := time.Now()
	defer func() { c.reg.Histogram("service_disk_cache_get_us").Observe(time.Since(start).Microseconds()) }()
	raw, ok := c.disk.Get(key)
	if !ok {
		return Response{}, false
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		c.disk.MarkCorrupt(key)
		return Response{}, false
	}
	c.mem.Put(key, resp)
	c.tierHit(&c.diskHits, "disk").Inc()
	return resp, true
}

// tierHit returns the hit counter h keeps for tier, registering it at
// the tier's first hit so that it appears in /metrics only once it
// counts.
func (c *resultCache) tierHit(h *atomic.Pointer[telemetry.Counter], tier string) *telemetry.Counter {
	if ctr := h.Load(); ctr != nil {
		return ctr
	}
	ctr := c.reg.CounterL("service_cache_tier_hits", "tier", tier)
	h.Store(ctr)
	return ctr
}

// canonical returns the canonical key recorded for a source key.
func (c *resultCache) canonical(src [sha256.Size]byte) (string, bool) {
	return c.aliases.Get(string(src[:]))
}

// alias records the canonical key a source key's text parsed to.
func (c *resultCache) alias(src [sha256.Size]byte, key string) {
	c.aliases.Put(string(src[:]), key)
}

// put stores a response in both tiers; the disk write's latency lands
// in service_disk_cache_put_us.
func (c *resultCache) put(key string, resp Response) {
	c.mem.Put(key, resp)
	if c.disk == nil {
		return
	}
	start := time.Now()
	// A Response holds only strings, ints and bools, which always
	// marshal.
	raw, _ := json.Marshal(resp)
	c.disk.Put(key, raw)
	c.reg.Histogram("service_disk_cache_put_us").Observe(time.Since(start).Microseconds())
}

func (c *resultCache) len() int { return c.mem.Len() }

// refreshGauges mirrors the tiers' internal counters into the
// registry, called on every /metrics scrape: disk hit/miss/corrupt/
// evict totals, entry and byte footprints, and the memory tier's
// eviction count.
func (c *resultCache) refreshGauges() {
	c.reg.Gauge("service_cache_mem_evictions").Set(c.mem.Evictions())
	d := c.disk
	if d == nil {
		return
	}
	st := d.Stats()
	c.reg.Gauge("service_disk_cache_hits").Set(st.Hits)
	c.reg.Gauge("service_disk_cache_misses").Set(st.Misses)
	c.reg.Gauge("service_disk_cache_corrupt").Set(st.Corrupt)
	c.reg.Gauge("service_disk_cache_evictions").Set(st.Evictions)
	c.reg.Gauge("service_disk_cache_writes").Set(st.Writes)
	c.reg.Gauge("service_disk_cache_write_errors").Set(st.WriteErrors)
	c.reg.Gauge("service_disk_cache_entries").Set(int64(d.Len()))
	c.reg.Gauge("service_disk_cache_bytes").Set(d.Size())
}
