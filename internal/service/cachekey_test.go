package service

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"diffra"
	"diffra/internal/ir"
	"diffra/internal/workloads"
)

// TestCacheKeyGolden pins the bytes every cache key hashes: the ten §8
// kernels and the checked-in sample programs, under every scheme,
// every alloc spelling and both rendering flags. Persisted disk
// entries and the router's ring placement both live at these keys, so
// a change to the printer or to the option encoding must fail here
// rather than silently orphan a warm cache.
func TestCacheKeyGolden(t *testing.T) {
	type input struct {
		name string
		f    *ir.Func
	}
	var inputs []input
	for _, k := range workloads.Kernels() {
		inputs = append(inputs, input{k.Name, k.F})
	}
	paths, err := filepath.Glob("../../testdata/*.ir")
	if err != nil || len(paths) == 0 {
		t.Fatalf("testdata: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		inputs = append(inputs, input{filepath.Base(p), f})
	}
	schemes := []diffra.Scheme{diffra.Baseline, diffra.Remapping, diffra.Select, diffra.OSpill, diffra.Coalesce}
	allocs := []diffra.Backend{"", diffra.AllocIRC, diffra.AllocSSA, diffra.AllocOSpill, diffra.AllocAuto}
	h := fnv.New64a()
	for _, in := range inputs {
		for _, s := range schemes {
			for _, a := range allocs {
				opts, err := diffra.Options{Scheme: s, Alloc: a}.Resolved()
				if err != nil {
					t.Fatalf("%s/%s: %v", s, a, err)
				}
				for _, listing := range []bool{false, true} {
					for _, explain := range []bool{false, true} {
						fmt.Fprintln(h, in.name, s, a, listing, explain, CacheKey(in.f, opts, listing, explain))
					}
				}
			}
		}
	}
	if got, want := h.Sum64(), uint64(0xcf7b1f73c7feb0b1); got != want {
		t.Errorf("cache key hash %#x, golden %#x", got, want)
	}
}
