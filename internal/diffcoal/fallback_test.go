package diffcoal_test

import (
	"fmt"
	"testing"

	"diffra/internal/diffcoal"
	"diffra/internal/difftest"
	"diffra/internal/regalloc"
)

// TestFallbackRoundsFollowTheInput: these generated functions need
// more than 16 fallback spills before the conservative simplify
// succeeds at RegN 2 or 3. The rounds are bounded by the input's vreg
// count, so they allocate, and the allocation verifies.
func TestFallbackRoundsFollowTheInput(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		regN int
	}{{42, 2}, {84, 2}, {84, 3}, {99, 2}, {120, 2}} {
		t.Run(fmt.Sprintf("seed%d/RegN%d", tc.seed, tc.regN), func(t *testing.T) {
			f, _, _ := difftest.Generate(tc.seed)
			out, asn, st, err := diffcoal.Allocate(f, diffcoal.Options{RegN: tc.regN, DiffN: (tc.regN + 1) / 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := regalloc.Verify(out, asn); err != nil {
				t.Fatal(err)
			}
			// A cap of 16 rounds stopped each of them after 16 spills.
			if st.FallbackSpills < 16 || st.FallbackSpills > f.NumRegs() {
				t.Errorf("%d fallback spills, want 16 to %d (the input's vregs)", st.FallbackSpills, f.NumRegs())
			}
		})
	}
}
