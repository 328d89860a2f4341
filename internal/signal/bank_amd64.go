//go:build amd64 && !purego

package signal

import "cognitivearm/internal/cpu"

// bankAVX2 advances the first w channels (w ≥ 4, a multiple of 4) of an
// n-wide bank by one sample through sections ≥ 1 biquads, in AVX2 without FMA:
// every lane computes Biquad.Process's three expressions in its order. It
// reads the five coefficients of coef[0:sections], reads and writes x[0:w]
// and z1, z2[s·n : s·n+w] for s < sections, and touches no other byte.
//
//go:noescape
//cogarm:zeroalloc
func bankAVX2(coef *Biquad, sections int, x, z1, z2 *float64, n, w int)

// processAVX2 runs the leading channels&^3 columns of one sample through the
// assembly routine and returns the first column it left for processPortable:
// 0 without AVX2. Every pointer passed down is element 0 of a slice Go has
// bounds-checked to exactly the extent bankAVX2 touches.
//
//cogarm:zeroalloc
func (b *Bank) processAVX2(x []float64) int {
	n, sections := b.channels, len(b.coef)
	w := n &^ 3
	if !cpu.HasAVX2 || w == 0 || sections == 0 {
		return 0
	}
	x = x[:w]
	z1 := b.z1[:(sections-1)*n+w]
	z2 := b.z2[:(sections-1)*n+w]
	bankAVX2(&b.coef[0], sections, &x[0], &z1[0], &z2[0], n, w)
	return w
}
