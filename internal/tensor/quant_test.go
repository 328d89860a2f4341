package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuantizeWeightsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	w := randMatrix(rng, 40, 32)
	// One all-zero column: must get scale 0 without poisoning neighbours.
	for k := 0; k < w.Rows; k++ {
		w.Set(k, 5, 0)
	}
	q := QuantizeWeights(w)
	if q.In != 40 || q.Out != 32 {
		t.Fatalf("bad dims %dx%d", q.Out, q.In)
	}
	if q.Scales[5] != 0 {
		t.Fatalf("all-zero column scale = %v, want 0", q.Scales[5])
	}
	for j := 0; j < w.Cols; j++ {
		scale := float64(q.Scales[j])
		for k := 0; k < w.Rows; k++ {
			got := float64(q.Data[j*q.In+k]) * scale
			want := w.At(k, j)
			// Symmetric int8: error bounded by half a quantization step.
			if math.Abs(got-want) > scale/2+1e-12 {
				t.Fatalf("w[%d][%d]: dequant %v vs %v (scale %v)", k, j, got, want, scale)
			}
		}
	}
}

func TestMatMulQApproximatesGEMM(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randMatrix(rng, 25, 40)
	w := randMatrix(rng, 40, 8)
	bias := make([]float64, 8)
	for j := range bias {
		bias[j] = rng.NormFloat64()
	}
	ep := Epilogue{Bias: bias, ReLU: true}
	fresh := NewWorkspace()
	exact := GEMM(fresh, fresh.Uninit(25, 8), x, w, ep)
	q := QuantizeWeights(w)
	got := MatMulQ(fresh, fresh.Uninit(25, 8), x, q, ep)
	// int8×int8 keeps ~2 decimal digits on unit-scale data; argmax agreement
	// is what the serving gate checks, but here bound the raw error too.
	for i := 0; i < exact.Rows; i++ {
		if Argmax(got.Row(i)) != Argmax(exact.Row(i)) {
			t.Fatalf("row %d argmax diverged: %v vs %v", i, got.Row(i), exact.Row(i))
		}
		for j, want := range exact.Row(i) {
			if math.Abs(got.Row(i)[j]-want) > 0.15 {
				t.Fatalf("row %d col %d: quantized %v vs exact %v", i, j, got.Row(i)[j], want)
			}
		}
	}
	// A warm workspace, whose recycled activation scratch holds the previous
	// cycle's codes, matches the fresh one bitwise.
	warm := NewWorkspace()
	MatMulQ(warm, warm.Uninit(25, 8), randMatrix(rng, 25, 40), q, ep)
	warm.Reset()
	got2 := MatMulQ(warm, warm.Uninit(25, 8), x, q, ep)
	assertBitwise(t, got, got2, "MatMulQ warm ws")
}

func TestMatMulQZeroRow(t *testing.T) {
	x := New(2, 6) // all zeros
	w := randMatrix(rand.New(rand.NewSource(12)), 6, 3)
	q := QuantizeWeights(w)
	bias := []float64{1, -2, 3}
	ws := NewWorkspace()
	out := MatMulQ(ws, ws.Uninit(2, 3), x, q, Epilogue{Bias: bias})
	for i := 0; i < 2; i++ {
		for j, b := range bias {
			if out.At(i, j) != b {
				t.Fatalf("zero input row must pass bias through, got %v", out.Row(i))
			}
		}
	}
}

func TestI16MapMonotone(t *testing.T) {
	m := NewI16Map(-3, 7)
	prev := m.Quantize(-10)
	for v := -10.0; v <= 12; v += 0.01 {
		q := m.Quantize(v)
		if q < prev {
			t.Fatalf("Quantize not monotone at %v: %d < %d", v, q, prev)
		}
		prev = q
	}
	// v <= t must imply q(v) <= q(t) — direct spot check across the clamp.
	pairs := [][2]float64{{-100, -3}, {-3, -2.999}, {0, 0}, {6.999, 7}, {7, 100}}
	for _, p := range pairs {
		if m.Quantize(p[0]) > m.Quantize(p[1]) {
			t.Fatalf("order violated for %v", p)
		}
	}
	// Degenerate range maps everything to 0.
	d := NewI16Map(5, 5)
	if d.Quantize(-1) != 0 || d.Quantize(99) != 0 {
		t.Fatal("degenerate map must be constant 0")
	}
}

func TestQuantizeRowI16(t *testing.T) {
	maps := []I16Map{NewI16Map(0, 1), NewI16Map(-1, 1), NewI16Map(2, 2)}
	src := []float64{0.5, 0, 7}
	dst := make([]int16, 3)
	QuantizeRowI16(dst, src, maps)
	for i := range src {
		if dst[i] != maps[i].Quantize(src[i]) {
			t.Fatalf("col %d mismatch", i)
		}
	}
}
