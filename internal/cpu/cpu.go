// Package cpu is the one run-time gate the assembly kernels read: the AVX2
// tile under tensor.GEMM, the biquad bank under signal.Bank.Process and the
// feature accumulator under dataset.FeatureVectorInto. It is decided once at
// start-up from CPUID; there is no flag. Builds without the assembly (any
// GOARCH but amd64, or -tags purego) have HasAVX2 as the constant false.
package cpu

// Kernels names the kernel set serving this process, for /statusz and the
// start-up log: "avx2" when the assembly kernels run, "portable" when their Go
// twins compute everything. The two produce identical output.
func Kernels() string {
	if HasAVX2 {
		return "avx2"
	}
	return "portable"
}
