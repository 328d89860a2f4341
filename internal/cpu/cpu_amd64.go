//go:build amd64 && !purego

package cpu

// HasAVX2 reports whether the assembly kernels may run: the CPU has AVX2 and
// the OS saves the YMM state across context switches.
var HasAVX2 = detectAVX2()

// HasAVX512 reports whether the GEMM may take its AVX-512F tile: HasAVX2
// holds, the CPU has AVX-512F and the OS saves the opmask and ZMM state too.
var HasAVX512 = HasAVX2 && detectAVX512()

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

// detectAVX512 assumes detectAVX2's checks passed (leaf 7 exists, XGETBV is
// usable).
func detectAVX512() bool {
	// XCR0 bits 1, 2, 5, 6 and 7: XMM, YMM, the opmask registers, the upper
	// halves of ZMM0–15 and ZMM16–31.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if lo, _ := xgetbv(); lo&zmmState != zmmState {
		return false
	}
	const avx512f = 1 << 16
	_, b, _, _ := cpuid(7, 0)
	return b&avx512f != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
