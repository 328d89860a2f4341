// Fixture for the conversion rule: conversions between float32/float64 and
// int8/int16 (either direction, named types included) are findings outside
// cognitivearm/internal/tensor.
package qsfix

import "cognitivearm/internal/tensor"

type level int8 // named type with a quantized underlying kind

func quantizes(f float64, g float32) {
	_ = int8(f)  // want `float64→int8 conversion outside cognitivearm/internal/tensor`
	_ = int16(g) // want `float32→int16 conversion outside cognitivearm/internal/tensor`
	_ = level(f) // want `float64→level conversion outside cognitivearm/internal/tensor`
}

func dequantizes(q int8, w int16, l level) {
	_ = float64(q) // want `int8→float64 conversion outside cognitivearm/internal/tensor`
	_ = float32(w) // want `int16→float32 conversion outside cognitivearm/internal/tensor`
	_ = float64(l) // want `level→float64 conversion outside cognitivearm/internal/tensor`
}

func allowed(f float64, n int, u int32, q int8) {
	_ = int8(n)     // wide int → int8 is a range concern, not quantization
	_ = int32(f)    // float → wide int carries no scale
	_ = float64(n)  // plain counter arithmetic
	_ = float64(u)  // int32 accumulators dequantize freely
	_ = int8(1.0)   // untyped constant: compile-time, not a runtime step
	_ = int(q)      // widening a quantized value without a float is fine
	_ = tensor.Q(f) // the kernel entry point is the sanctioned route
}

var initialized = int8(initialScale) // want `float64→int8 conversion outside cognitivearm/internal/tensor`

var initialScale = 0.5
