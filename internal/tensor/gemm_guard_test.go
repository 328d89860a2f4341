//go:build linux && amd64 && !purego

package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"cognitivearm/internal/cpu/guardpage"
)

// TestGEMMGuardPages is the memory-safety pin for the assembly tiles: every
// operand — each block of left-operand rows, b, dst, the bias — sits flush
// against an unmapped page, first at its end, then at its start, and the
// product runs at every tier the host has, at the serving shape and at the
// shapes with row and column tails. An access one byte outside what Go
// bounds-checked kills the test binary with a fault, every run, rather than
// corrupting a neighbour once in many; results are still checked against the
// naive loop.
func TestGEMMGuardPages(t *testing.T) {
	tiers := hostTiers(t)
	rng := rand.New(rand.NewSource(8))
	for _, tc := range []struct{ blocks, rows, cols, stride, n int }{
		{50, 48, 80, 32, 32}, // the serving conv
		{3, 49, 80, 32, 32},  // quads straddle blocks
		{1, 4, 1, 1, 8},      // one tile, one step
		{1, 5, 5, 5, 9},
		{1, 7, 80, 80, 17},
		{2, 3, 5, 9, 7}, // no full tile at all: portable only
		{1, 257, 5, 5, 65},
		{1, 48, 300, 300, 16},
		{1, 5, 80, 80, 24}, // a 16-wide tile, then an 8-wide one
		{2, 7, 80, 32, 25}, // the same and a portable column
		{1, 9, 3, 3, 41},   // two 16-wide, one 8-wide, one portable
	} {
		for _, atEnd := range []bool{true, false} {
			a := RowBlocks{Blocks: make([]*Matrix, tc.blocks), Rows: tc.rows, Cols: tc.cols, Stride: tc.stride}
			for i := range a.Blocks {
				src := randMatrix(rng, 1, (tc.rows-1)*tc.stride+tc.cols)
				a.Blocks[i] = FromSlice(1, src.Cols, guardpage.Copy(t, src.Data, atEnd))
			}
			b := FromSlice(tc.cols, tc.n, guardpage.Copy(t, randMatrix(rng, tc.cols, tc.n).Data, atEnd))
			ep := Epilogue{Bias: guardpage.Copy(t, randBias(rng, tc.n), atEnd), ReLU: true}
			m := tc.blocks * tc.rows
			dst := FromSlice(m, tc.n, guardpage.Floats(t, m*tc.n, atEnd))
			want := naive(blockRows(a), b, ep)
			for _, tr := range tiers {
				tier = tr
				dst.Fill(-1) // no ReLU output: a tile that skips an element shows
				GEMMBlocks(NewWorkspace(), dst, a, b, ep)
				assertBitwise(t, want, dst,
					fmt.Sprintf("%d blocks × %d rows × %d cols, stride %d, n %d, fence at end %v, tier %s",
						tc.blocks, tc.rows, tc.cols, tc.stride, tc.n, atEnd, tierNames[tr]))
			}
		}
	}
}
