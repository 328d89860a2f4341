//go:build linux && amd64 && !purego

package dataset

import (
	"math"
	"testing"

	"cognitivearm/internal/cpu"
	"cognitivearm/internal/cpu/guardpage"
	"cognitivearm/internal/tensor"
)

// TestFeatureVectorGuardPages is the memory-safety pin for the assembly
// routine: the window and the feature buffer each sit flush against an
// unmapped page, first at their end, then at their start, at the serving
// shape and at shapes with a column remainder and a single row. An access one
// byte outside what Go bounds-checked kills the test binary with a fault;
// results are still checked against the per-channel reference.
func TestFeatureVectorGuardPages(t *testing.T) {
	if !cpu.HasAVX2 {
		t.Skip("no AVX2: the assembly routine does not run on this CPU")
	}
	rng := tensor.NewRNG(22)
	for _, tc := range []struct{ rows, cols int }{
		{100, 16}, // serving
		{100, 17},
		{99, 12},
		{1, 8},
		{2, 9},
		{100, 7}, // no full group: portable only
	} {
		for _, atEnd := range []bool{true, false} {
			m := tensor.FromSlice(tc.rows, tc.cols, guardpage.Floats(t, tc.rows*tc.cols, atEnd))
			for i := range m.Data {
				m.Data[i] = 10 * rng.NormFloat64()
			}
			dst := guardpage.Floats(t, 5*tc.cols, atEnd)
			got := FeatureVectorInto(dst, Window{Data: m})
			if &got[0] != &dst[0] {
				t.Fatalf("%d×%d: FeatureVectorInto left a dst with capacity for the features", tc.rows, tc.cols)
			}
			for i, want := range refFeatureVector(Window{Data: m}) {
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%d×%d, fence at end %v: feature %d = %v, reference %v", tc.rows, tc.cols, atEnd, i, got[i], want)
				}
			}
		}
	}
}
