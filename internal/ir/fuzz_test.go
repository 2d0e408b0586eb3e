package ir

import (
	"strings"
	"testing"
)

// fuzzParseSeeds and fuzzNeverPanicsSeeds seed the two parser fuzz
// targets; TestParseGolden also pins their parse outcomes.
var (
	fuzzParseSeeds = []string{
		loopSrc,
		"func f() {\nentry:\n  ret\n}",
		"func f(v0) {\nentry:\n  v1 = li 3\n  store v1, v0, 0\n  ret v1\n}",
		"func f(v0) {\nentry:\n  br v0 -> a, b\na:\n  jmp b\nb:\n  ret\n}",
		"func f(v0) {\nentry:\n  set_last_reg 3, 1\n  ret v0\n}",
		"garbage",
		"func f( {",
	}
	fuzzNeverPanicsSeeds = []string{
		"func f() {\n" + strings.Repeat("x:\n", 100) + "}",
		"func \x00() {}",
		"func f(v999999999999999999) {\nentry:\n ret\n}",
	}
)

// FuzzParse hardens the IR parser: arbitrary input must either be
// rejected with an error or produce a function that verifies and
// round-trips through the printer.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzParseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := Parse(src)
		if err != nil {
			return
		}
		if err := fn.Verify(); err != nil {
			t.Fatalf("Parse accepted unverifiable function: %v\nsource: %q", err, src)
		}
		text := fn.String()
		fn2, err := Parse(text)
		if err != nil {
			t.Fatalf("printer output unparseable: %v\n%s", err, text)
		}
		if got := fn2.String(); got != text {
			t.Fatalf("print/parse not a fixpoint:\n%s\nvs\n%s", text, got)
		}
	})
}

// FuzzParseNeverPanics feeds hostile fragments with control characters
// and long lines.
func FuzzParseNeverPanics(f *testing.F) {
	for _, s := range fuzzNeverPanicsSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Parse(src) // must not panic
	})
}
