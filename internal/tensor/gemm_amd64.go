//go:build amd64 && !purego

package tensor

// hasAVX2 reports whether tile4x8 may run: the CPU has AVX2 and the OS saves
// the YMM state across context switches.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS restores XMM and YMM registers.
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// tile4x8 is the tile contract of gemm.go for one full tile, in AVX2 without
// FMA: d[r·ldd+c] = ep(Σₖ a_r[k]·b[k·ldb+c]) for r < 4, c < 8, k ascending.
// It reads a_r[0:k], b[k'·ldb : k'·ldb+8] for k' < k and bias[0:8] (nil = no
// bias), writes d[r·ldd : r·ldd+8], and touches no other byte.
//
//go:noescape
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
	if !hasAVX2 || k == 0 {
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
		//cogarm:allow zeroalloc -- assembly: NOSPLIT, zero frame, //go:noescape — it cannot allocate or retain
		tile4x8(&r0[0], &r1[0], &r2[0], &r3[0], &bt[0], k, n, &dt[0], n, bias, ep.ReLU)
	}
	return j
}
