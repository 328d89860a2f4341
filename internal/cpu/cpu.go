// Package cpu is the one run-time gate the assembly kernels read: the AVX-512F
// and AVX2 tiles under tensor.GEMM, the biquad bank under signal.Bank.Process
// and the feature accumulator under dataset.FeatureVectorInto. It is decided
// once at start-up from CPUID and XGETBV; there is no flag. Builds without the
// assembly (any GOARCH but amd64, or -tags purego) have HasAVX2 and HasAVX512
// as the constant false.
package cpu

// Kernels names the kernel set serving this process, for /statusz and the
// start-up log: "avx512" when the GEMM takes its AVX-512F tile and the other
// kernels their AVX2 routines, "avx2" when every assembly kernel is AVX2,
// "portable" when their Go twins compute everything. All three produce
// identical output.
func Kernels() string {
	switch {
	case HasAVX512:
		return "avx512"
	case HasAVX2:
		return "avx2"
	}
	return "portable"
}
