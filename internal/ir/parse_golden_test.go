package ir_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"diffra/internal/difftest"
	"diffra/internal/ir"
	"diffra/internal/workloads"
)

// edgeSpellings are inputs at the corners of the accepted language:
// register spellings strconv.Atoi takes beyond plain digits, comment
// tails, CRLF and tab layouts, label mistakes, and bodies that parse
// but fail Verify (whose error text embeds the printer's rendering of
// a malformed instruction).
var edgeSpellings = []string{
	"func f(v+1) {\nentry:\n  ret v+1\n}",
	"func f(v-0) {\nentry:\n  v+2 = add v-0, v+1\n  ret v2\n}",
	"func f(v007) {\nentry:\n  v008 = add v007, v0007\n  ret v8\n}",
	"func f(v-1) {\nentry:\n  ret\n}",
	"func f(v) {\nentry:\n  ret\n}",
	"func f(V0) {\nentry:\n  ret\n}",
	"func f(v0x1) {\nentry:\n  ret\n}",
	"func f(v1_0) {\nentry:\n  ret\n}",
	"func f(v\u0663) {\nentry:\n  ret\n}",
	"func f(v123456789012345678) {\nentry:\n  ret v123456789012345678\n}",
	"func f(v1234567890123456789) {\nentry:\n  ret\n}",
	"func f(v9223372036854775807) {\nentry:\n  ret\n}",
	"func f(v9223372036854775808) {\nentry:\n  ret\n}",
	"func f(v99999999999999999999) {\nentry:\n  ret\n}",
	"func f(v0) {\nentry:\n  jmp -> x\nx:\n  ret v0\n}",
	"func f(v0) {\nentry:\n  jmp a -> b\na:\n  ret\nb:\n  ret\n}",
	"func f(v0) {\nentry:\n  jmp a, b\na:\n  ret\nb:\n  ret\n}",
	"func f(v0) {\nentry:\n  jmp\n}",
	"func f(v0) {\nentry:\n  br v0 -> a\na:\n  ret\n}",
	"func f(v0) {\nentry:\n  br v0 -> a,, b ,\na:\n  ret\nb:\n  ret v0\n}",
	"func f(v0) {\nentry:\n  v1 = add v0, v0 -> a\n  jmp a\na:\n  ret\n}",
	"func f(v0) {\nentry:\n  ret -> entry\n}",
	"func f(v0) { ; header\n; whole-line comment\nentry: ; label\n  v1 = li 3 ; tail\n  ret v1;tight\n} ; done",
	"func f(v0) {\nentry:\n  v1 = li 3 ; -> nowhere, = v9\n  ret v1\n}",
	"func f(v0) {\r\nentry:\r\n  v1 = li 3\r\n  ret v1\r\n}\r\n",
	"func f(v0) {\r\nentry:\r\n  ret v0 ; crlf tail\r\n}",
	"\tfunc f(v0) {\n\tentry:\n\t\tv1 = add v0,\tv0\n\t\tret v1\n}\n",
	"func f(v0) {\nentry:\n  v1 = add\tv0, v0\n  ret v1\n}",
	"func\tf(v0) {\nentry:\n  ret\n}",
	"func  f ( v0 , v1 ) {\nentry:\n  ret v1\n}",
	"func (v0) {\nentry:\n  ret\n}",
	"func f(v0)\u00a0{\nentry:\n  ret\n}",
	"func f(v0) {\n\u0085entry:\u00a0\n  ret v0\n}",
	"func f(v0) {\nentry:\n  jmp a\na:\n  jmp a\na:\n  ret\n}",
	"func f() {\nentry:\n  jmp nowhere\n}",
	"func f() {\nentry:\n  br v0 -> a, missing\na:\n  ret\n}",
	"func f(v0) {\n:\n  ret\n}",
	"func f(v0) {\nentry::\n  jmp entry:\n}",
	"func f() {\nentry:\n  li 0\n  ret\n}",
	"func f() {\nentry:\n  li 0\n}",
	"func f(v0) {\nentry:\n  load v0, 4\n  ret\n}",
	"func f(v0) {\nentry:\n  v1 = store v0, v0, 0\n  ret\n}",
	"func f(v0) {\nentry:\n  store v0, 0\n  ret\n}",
	"func f(v0) {\nentry:\n  store v0, v0, x\n  ret\n}",
	"func f(v0) {\nentry:\n  v1 = set_last_reg 3, 1\n  ret\n}",
	"func f(v0) {\nentry:\n  set_last_reg 3, 1, 2\n  ret\n}",
	"func f(v0) {\nentry:\n  set_last_reg -3\n  ret\n}",
	"func f(v0) {\nentry:\n  v1 = call\n  ret\n}",
	"func f(v0) {\nentry:\n  v1 = call ext, v0, v0\n  call ext2\n  ret v1\n}",
	"func f(v0) {\nentry:\n  v1 = call ext, v0, x\n  ret v1\n}",
	"func f(v0) {\nentry:\n  v1 = add v0,, v0\n  ret v1\n}",
	"func f(v0) {\nentry:\n  v1 = add v0 v0\n  ret v1\n}",
	"func f(v0) {\nentry:\n  v1 = add v0\n  ret v1\n}",
	"func f(v0) {\nentry:\n  add v0, v0\n  ret\n}",
	"func f(v0) {\nentry:\n  v1 = li 99999999999999999999\n  ret\n}",
	"func f(v0) {\nentry:\n  v1 = li -5\n  v2 = li +5\n  v3 = li 0x10\n  ret\n}",
	"func f(v0) {\nentry:\n  spill_store v0, 4\n  v1 = spill_load 4\n  ret v1\n}",
	"func f(v0) {\nentry:\n  spill_store 4\n  ret\n}",
	"func f(v0) {\nentry:\n  ret v0, v0\n}",
	"func f(v0) {\nentry:\n  v1 = ret v0\n}",
	"func f(v0) {\nentry:\n  ret v5\n}",
	"func f(v0) {\nentry:\n  v1 = = li 3\n  ret\n}",
	"func f(v0) {\nentry:\n  = li 3\n  ret\n}",
	"func f(v0) {\nentry:\n  v1 = nop\n  ret\n}",
	"func f(v0) {\nentry:\n  v1 = invalid\n  ret\n}",
	"func f(v0) {\nentry:\n  v1 = mov v0 ->\n  ret\n}",
	"func f(v0) {\nentry:\n  ret v0\n}\nfunc g() {\n}",
	"func f(v0) {\nfunc g() {\n",
	"func f(v0) {\nentry:\n  ret v0\n",
	"func f(v0) {\nentry:\n  ret v0\n\n\n",
	"func f(v0) {\nentry:\n  ret v0",
	"func f(v0) {\nentry:\n  ret\nmore:\n}",
	"func f(v0 {",
	"func f)v0( {",
	"func f(v0) {\nentry:\n  ret\n}}",
	"}",
	"x:",
	"  ret",
	"",
	"\n\n;\n",
}

// TestParseGolden pins every Parse outcome, the error text or the
// printed function, over the §8 kernels, the checked-in samples, 300
// generated CFGs, the fuzz seeds and edgeSpellings. Hashing the
// printing of each accepted input pins the printer as well.
func TestParseGolden(t *testing.T) {
	var inputs []string
	for _, k := range workloads.Kernels() {
		inputs = append(inputs, k.F.String())
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
		inputs = append(inputs, string(src))
	}
	for seed := int64(1); seed <= 300; seed++ {
		f, _, _ := difftest.Generate(seed)
		inputs = append(inputs, f.String())
	}
	inputs = append(inputs, ir.FuzzSeeds...)
	inputs = append(inputs, edgeSpellings...)
	h := fnv.New64a()
	for i, src := range inputs {
		f, err := ir.Parse(src)
		if err != nil {
			fmt.Fprintf(h, "%d error %s\n", i, err)
			continue
		}
		fmt.Fprintf(h, "%d ok %s\n", i, f)
	}
	if got, want := h.Sum64(), uint64(0x932c5ec41acd70d6); got != want {
		t.Errorf("parse hash %#x, golden %#x", got, want)
	}
}
