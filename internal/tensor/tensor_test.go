package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape %dx%d len=%d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At(1,2)=%v", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 7.5 {
		t.Fatalf("Row shares storage: got %v", row[2])
	}
	row[0] = -1
	if m.At(1, 0) != -1 {
		t.Fatal("Row must alias the matrix storage")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched length")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{4, 5, 6})
	if got := Add(nil, a, b).Data; got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add got %v", got)
	}
	if got := Sub(nil, b, a).Data; got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub got %v", got)
	}
	if got := Mul(nil, a, b).Data; got[1] != 10 {
		t.Fatalf("Mul got %v", got)
	}
	// In-place aliasing.
	Add(a, a, b)
	if a.Data[0] != 5 {
		t.Fatalf("aliased Add got %v", a.Data)
	}
}

func TestScaleAndFill(t *testing.T) {
	m := FromSlice(1, 3, []float64{1, -2, 4})
	Scale(m, 0.5)
	if m.Data[1] != -1 || m.Data[2] != 2 {
		t.Fatalf("Scale got %v", m.Data)
	}
	m.Fill(3)
	for _, v := range m.Data {
		if v != 3 {
			t.Fatalf("Fill got %v", m.Data)
		}
	}
}

func TestColSums(t *testing.T) {
	m := FromSlice(2, 3, []float64{11, 22, 33, 14, 25, 36})
	sums := make([]float64, 3)
	ColSums(sums, m)
	if sums[0] != 11+14 || sums[2] != 33+36 {
		t.Fatalf("ColSums got %v", sums)
	}
}

// TestColSumsBitwiseNaive holds ColSums' register accumulation to the naive
// row-by-row loop bit for bit: widths around the eight-column block and its
// tail, signed zeros (a sum of −0s must stay the +0 it starts at), large
// magnitudes whose order of addition decides the rounding and the overflow,
// and no rows at all.
func TestColSumsBitwiseNaive(t *testing.T) {
	naive := func(dst []float64, m *Matrix) {
		for j := range dst {
			dst[j] = 0
		}
		for i := 0; i < m.Rows; i++ {
			for j, v := range m.Row(i) {
				dst[j] += v
			}
		}
	}
	rng := NewRNG(17)
	specials := []float64{0, math.Copysign(0, -1), 1e308, -1e308, 1e-300, 3, math.MaxFloat64, math.NaN()}
	for _, cols := range []int{1, 3, 4, 7, 8, 9, 13, 16, 17, 32, 33} {
		for _, rows := range []int{0, 1, 2, 5, 48} {
			m := New(rows, cols)
			for i := range m.Data {
				if rng.Intn(3) == 0 {
					m.Data[i] = specials[rng.Intn(len(specials))]
				} else {
					m.Data[i] = 1e15 * rng.NormFloat64()
				}
			}
			got, want := make([]float64, cols), make([]float64, cols)
			for j := range got {
				got[j] = 7 // ColSums overwrites, it does not add to dst
			}
			ColSums(got, m)
			naive(want, m)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%dx%d column %d: %v (%#x), naive %v (%#x)", rows, cols, j,
						got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
				}
			}
		}
	}
	negZero := FromSlice(3, 9, make([]float64, 27))
	for i := range negZero.Data {
		negZero.Data[i] = math.Copysign(0, -1)
	}
	sums := make([]float64, 9)
	ColSums(sums, negZero)
	for j, v := range sums {
		if math.Signbit(v) {
			t.Fatalf("column %d of −0s summed to −0; the naive loop gives +0", j)
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(10)
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64() * 10
		}
		dst := make([]float64, n)
		Softmax(dst, src)
		var sum float64
		for _, v := range dst {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStableUnderLargeInputs(t *testing.T) {
	src := []float64{1000, 1001, 1002}
	dst := make([]float64, 3)
	Softmax(dst, src)
	for _, v := range dst {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax not stable: %v", dst)
		}
	}
	if !(dst[2] > dst[1] && dst[1] > dst[0]) {
		t.Fatalf("softmax ordering broken: %v", dst)
	}
}

func TestArgmax(t *testing.T) {
	if Argmax(nil) != -1 {
		t.Fatal("empty argmax should be -1")
	}
	if got := Argmax([]float64{1, 3, 3, 2}); got != 1 {
		t.Fatalf("ties should pick first: got %d", got)
	}
}

func TestMeanStd(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEqual(Mean(v), 5, 1e-12) {
		t.Fatalf("mean=%v", Mean(v))
	}
	if !almostEqual(Std(v), 2, 1e-12) {
		t.Fatalf("std=%v", Std(v))
	}
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty mean/std should be 0")
	}
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("dot")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Fatal("zero seed must be remapped")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	rng := NewRNG(123)
	for i := 0; i < 10000; i++ {
		v := rng.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	rng := NewRNG(5)
	p := rng.Perm(50)
	seen := make([]bool, 50)
	for _, x := range p {
		if x < 0 || x >= 50 || seen[x] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[x] = true
	}
}

func TestRNGNormalMoments(t *testing.T) {
	rng := NewRNG(99)
	n := 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean too far from 0: %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance too far from 1: %v", variance)
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRNG(1)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams should differ")
	}
}

func TestXavierHeInitRanges(t *testing.T) {
	rng := NewRNG(11)
	m := New(10, 10)
	XavierInit(m, 10, 10, rng)
	limit := math.Sqrt(6.0 / 20.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("xavier out of range: %v (limit %v)", v, limit)
		}
	}
	HeInit(m, 10, rng)
	if Std(m.Data) < 0.2 {
		t.Fatalf("he init degenerate: std=%v", Std(m.Data))
	}
}
