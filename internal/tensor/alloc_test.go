package tensor

import "testing"

var (
	sinkF   float64
	sinkI   int
	sinkU   uint64
	sinkI16 int16
	sinkRow []float64
)

// TestKernelsAllocFree pins every kernel the serving path can reach at zero
// allocations per call once its output exists: caller-owned dst matrices and
// slices, or a warm workspace reset per cycle, the pooled GEMM included.
// Escape analysis vouches for each body on its own; this measures the calls.
func TestKernelsAllocFree(t *testing.T) {
	rng := NewRNG(3)
	fill := func(rows, cols int) *Matrix {
		m := New(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	a, a2, b := fill(8, 6), fill(8, 6), fill(6, 5)
	prod, elem := New(8, 5), New(8, 6)
	sums, probs, i16 := make([]float64, 6), make([]float64, 6), make([]int16, 6)
	maps := make([]I16Map, 6)
	for i := range maps {
		maps[i] = NewI16Map(-3, 3)
	}
	q := QuantizeWeights(b)
	ep := Epilogue{Bias: b.Row(0), ReLU: true}

	// Past the pool's crossover: 64·128·128 multiply-adds.
	bigA, bigB, bigDst := fill(64, 128), fill(128, 128), New(64, 128)
	pool := NewPool(2)
	defer pool.Close()
	ws, pooled := NewWorkspace(), NewWorkspace()
	pooled.SetPool(pool)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Matrix.At", func() { sinkF = a.At(3, 4) }},
		{"Matrix.Set", func() { elem.Set(3, 4, 1.5) }},
		{"Matrix.Row", func() { sinkRow = a.Row(5) }},
		{"Matrix.Zero", func() { elem.Zero() }},
		{"Matrix.Fill", func() { elem.Fill(0.25) }},
		{"Add", func() { Add(elem, a, a2) }},
		{"Sub", func() { Sub(elem, a, a2) }},
		{"Mul", func() { Mul(elem, a, a2) }},
		{"Scale", func() { Scale(elem, 1) }},
		{"ColSums", func() { ColSums(sums, a) }},
		{"Dot", func() { sinkF = Dot(a.Row(0), a2.Row(0)) }},
		{"Softmax", func() { Softmax(probs, a.Row(2)) }},
		{"SoftmaxRows", func() { SoftmaxRows(elem) }},
		{"Argmax", func() { sinkI = Argmax(a.Row(3)) }},
		{"Mean", func() { sinkF = Mean(a.Row(4)) }},
		{"RNG.Uint64", func() { sinkU = rng.Uint64() }},
		{"RNG.Float64", func() { sinkF = rng.Float64() }},
		{"RNG.Intn", func() { sinkI = rng.Intn(17) }},
		{"RNG.NormFloat64", func() { sinkF = rng.NormFloat64() }},
		{"I16Map.Quantize", func() { sinkI16 = maps[0].Quantize(0.7) }},
		{"QuantizeRowI16", func() { QuantizeRowI16(i16, a.Row(0), maps) }},
		{"Workspace.Int8s+Int16s", func() { ws.Reset(); ws.Int8s(40); ws.Int16s(24) }},
		{"GEMM", func() { ws.Reset(); GEMM(ws, prod, a, b, ep) }},
		{"MatMulQ", func() { ws.Reset(); MatMulQ(ws, prod, a, q, ep) }},
		{"GEMM pooled", func() { pooled.Reset(); GEMM(pooled, bigDst, bigA, bigB, Epilogue{}) }},
	}
	for _, tc := range cases {
		tc.fn() // warm the workspace buckets and the pool's call free list
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}
