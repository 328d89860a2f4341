// Stub of cognitivearm/internal/tensor at the real import path: the one
// package the conversion rule exempts. It converts in both directions and
// must produce no findings.
package tensor

// Q is a stand-in for the kernel-owned quantization entry point.
func Q(f float64) int8 {
	return int8(f)
}

// Dq is the matching dequantization stand-in.
func Dq(q int8) float64 {
	return float64(q)
}
