package regalloc_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"diffra/internal/bitset"
	"diffra/internal/difftest"
	"diffra/internal/ir"
	"diffra/internal/liveness"
	"diffra/internal/regalloc"
	"diffra/internal/workloads"
)

// refBuild is the bitset-and-append graph build: a V-bit row per vreg
// deduplicates the pairs Interferences reports, and each new pair is
// appended to both endpoints' lists.
func refBuild(f *ir.Func, info *liveness.Info) [][]int {
	n := f.NumRegs()
	rows := make([]*bitset.Set, n)
	for i := range rows {
		rows[i] = bitset.New(n)
	}
	adj := make([][]int, n)
	regalloc.Interferences(f, info, nil, func(u, v int) {
		if u == v || rows[u].Has(v) {
			return
		}
		rows[u].Add(v)
		rows[v].Add(u)
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	})
	return adj
}

func assertBuildMatchesRef(t *testing.T, name string, f *ir.Func) {
	t.Helper()
	info := liveness.Compute(f)
	g := regalloc.Build(f, info)
	adj := refBuild(f, info)
	if g.N != f.NumRegs() || len(g.AdjList) != len(adj) {
		t.Fatalf("%s: N = %d with %d rows, want %d", name, g.N, len(g.AdjList), len(adj))
	}
	for u := range adj {
		if !slices.Equal(g.AdjList[u], adj[u]) {
			t.Fatalf("%s: row v%d = %v, want %v", name, u, g.AdjList[u], adj[u])
		}
	}
}

// TestBuildMatchesBitsetReference: Build's neighbor rows equal the
// bitset build's, order included, on the ten kernels, join3
// and generated CFGs.
func TestBuildMatchesBitsetReference(t *testing.T) {
	for _, k := range workloads.Kernels() {
		assertBuildMatchesRef(t, k.Name, k.F)
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "join3.ir"))
	if err != nil {
		t.Fatal(err)
	}
	assertBuildMatchesRef(t, "join3", ir.MustParse(string(src)))
	for seed := int64(0); seed < 40; seed++ {
		f, _, _ := difftest.Generate(seed)
		assertBuildMatchesRef(t, fmt.Sprintf("gen%d", seed), f)
	}
}
