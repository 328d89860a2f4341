//go:build amd64 && !purego

package tensor

import "cognitivearm/internal/cpu"

// tile4x8 is the tile contract of gemm.go for one full tile, in AVX2 without
// FMA: d[r·ldd+c] = ep(Σₖ a_r[k]·b[k·ldb+c]) for r < 4, c < 8, k ascending.
// It reads a_r[0:k], b[k'·ldb : k'·ldb+8] for k' < k and bias[0:8] (nil = no
// bias), writes d[r·ldd : r·ldd+8], and touches no other byte.
//
//go:noescape
//cogarm:zeroalloc
func tile4x8(a0, a1, a2, a3, b *float64, k, ldb int, d *float64, ldd int, bias *float64, relu bool)

// tiles4x8 computes the leading full 8-column tiles of one 4-row quad — rows
// r0..r3 against the len(r0)×n row-major b into the 4×n row-major d — and
// returns the first column it left for the portable tile: 0 without AVX2.
// Every pointer passed down is element 0 of a slice Go has bounds-checked to
// exactly the extent tile4x8 touches.
//
//cogarm:zeroalloc
func tiles4x8(r0, r1, r2, r3, b []float64, n int, d []float64, ep Epilogue) int {
	k := len(r0)
	if !cpu.HasAVX2 || k == 0 {
		return 0
	}
	r1, r2, r3 = r1[:k], r2[:k], r3[:k]
	j := 0
	for ; j+8 <= n; j += 8 {
		bt := b[j : j+(k-1)*n+8]
		dt := d[j : j+3*n+8]
		var bias *float64
		if ep.Bias != nil {
			bias = &ep.Bias[j : j+8][0]
		}
		tile4x8(&r0[0], &r1[0], &r2[0], &r3[0], &bt[0], k, n, &dt[0], n, bias, ep.ReLU)
	}
	return j
}
