//go:build amd64 && !purego

package tensor

import "cognitivearm/internal/cpu"

// tile4x16 is the tile contract of gemm.go for one full 4×16 tile, in
// AVX-512F without FMA: d[r·ldd+c] = ep(Σₖ a_r[k]·b[k·ldb+c]) for r < 4,
// c < 16, k ascending. It reads a_r[0:k], b[k'·ldb : k'·ldb+16] for k' < k and
// bias[0:16] (nil = no bias), writes d[r·ldd : r·ldd+16], and touches no other
// byte.
//
//go:noescape
//cogarm:zeroalloc
func tile4x16(a0, a1, a2, a3, b *float64, k, ldb int, d *float64, ldd int, bias *float64, relu bool)

// tile4x8 is tile4x16 for a 4×8 tile, in AVX2 without FMA.
//
//go:noescape
//cogarm:zeroalloc
func tile4x8(a0, a1, a2, a3, b *float64, k, ldb int, d *float64, ldd int, bias *float64, relu bool)

// hostTier is the widest tier the cpu gate allows.
func hostTier() int {
	switch {
	case cpu.HasAVX512:
		return tierAVX512
	case cpu.HasAVX2:
		return tierAVX2
	}
	return tierPortable
}

// quadTiles computes the leading full assembly tiles of one 4-row quad — rows
// r0..r3 against the len(r0)×n row-major b into the 4×n row-major d: 16-column
// tiles at tierAVX512, then 8-column ones (at most one there) — and returns
// the first column it left for the portable tile: 0 at tierPortable. Every
// pointer passed down is element 0 of a slice Go has bounds-checked to exactly
// the extent the tile touches.
//
//cogarm:zeroalloc
func quadTiles(r0, r1, r2, r3, b []float64, n int, d []float64, ep Epilogue) int {
	k := len(r0)
	if tier == tierPortable || k == 0 {
		return 0
	}
	r1, r2, r3 = r1[:k], r2[:k], r3[:k]
	j := 0
	if tier == tierAVX512 {
		for ; j+16 <= n; j += 16 {
			bt := b[j : j+(k-1)*n+16]
			dt := d[j : j+3*n+16]
			tile4x16(&r0[0], &r1[0], &r2[0], &r3[0], &bt[0], k, n, &dt[0], n, biasAt(ep.Bias, j, 16), ep.ReLU)
		}
	}
	for ; j+8 <= n; j += 8 {
		bt := b[j : j+(k-1)*n+8]
		dt := d[j : j+3*n+8]
		tile4x8(&r0[0], &r1[0], &r2[0], &r3[0], &bt[0], k, n, &dt[0], n, biasAt(ep.Bias, j, 8), ep.ReLU)
	}
	return j
}

// biasAt is &bias[j] after checking that bias[j : j+w] exists; nil for no bias.
func biasAt(bias []float64, j, w int) *float64 {
	if bias == nil {
		return nil
	}
	return &bias[j : j+w][0]
}
