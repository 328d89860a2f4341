package dataset

import (
	"math"
	"testing"

	"cognitivearm/internal/tensor"
)

// refFeatureVector is FeatureVectorInto as it stood before the blocked
// kernel: one channel at a time down its stride-Cols column. The kernel must
// reproduce it bit for bit, NaN, ±Inf and ±0 handling included.
func refFeatureVector(w Window) []float64 {
	nch := w.Data.Cols
	out := make([]float64, 0, 5*nch)
	for c := 0; c < nch; c++ {
		var sum, sq float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for t := 0; t < w.Data.Rows; t++ {
			v := w.Data.At(t, c)
			sum += v
			sq += v * v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		n := float64(w.Data.Rows)
		mean := sum / n
		variance := sq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		out = append(out, mean, math.Sqrt(variance), lo, hi, variance)
	}
	return out
}

// TestFeatureVectorMatchesReference covers every column remainder of the
// 4-wide kernel on random windows, then on windows salted with the values
// whose min/max handling is easy to change by accident: NaN (never selected),
// ±Inf, −0 beside +0 (the first seen stays), all-equal and all-NaN columns.
func TestFeatureVectorMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	specials := []float64{math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero, 5e-324, -5e-324, math.MaxFloat64}
	rng := tensor.NewRNG(31)
	check := func(name string, m *tensor.Matrix) {
		t.Helper()
		want := refFeatureVector(Window{Data: m})
		got := FeatureVectorInto(make([]float64, 0, 5*m.Cols), Window{Data: m})
		if len(got) != len(want) {
			t.Fatalf("%s %d×%d: %d features, want %d", name, m.Rows, m.Cols, len(got), len(want))
		}
		for i := range want {
			// A NaN mean/std/var need only be a NaN: when two NaNs of different
			// payload meet in an add, x86 keeps the first operand's, and which
			// operand of a commutative add comes first is the register
			// allocator's choice. min and max are never NaN.
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("%s %d×%d: feature %d (channel %d, %s) = %v (%#x), reference %v (%#x)", name, m.Rows, m.Cols,
					i, i/5, []string{"mean", "std", "min", "max", "var"}[i%5], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for _, cols := range []int{1, 3, 4, 5, 16} {
		for _, rows := range []int{1, 100} {
			m := tensor.New(rows, cols)
			check("zero", m)
			for trial := 0; trial < 20; trial++ {
				for i := range m.Data {
					m.Data[i] = 10 * rng.NormFloat64()
				}
				check("random", m)
				for k := 0; k < 1+rng.Intn(rows*cols/2+1); k++ { // salt
					m.Data[rng.Intn(len(m.Data))] = specials[rng.Intn(len(specials))]
				}
				check("salted", m)
			}
			for _, v := range specials {
				for i := range m.Data {
					m.Data[i] = v
				}
				check("all-equal", m)
			}
			// Zeros of both signs only, in both orders of first appearance.
			for first, z := range []float64{0, negZero} {
				for i := range m.Data {
					m.Data[i] = -z
				}
				for c := 0; c < cols; c++ {
					m.Data[c] = z
				}
				check([]string{"+0 first", "-0 first"}[first], m)
			}
		}
	}
}

func TestFeatureVectorIntoAllocs(t *testing.T) {
	m := tensor.New(100, 16)
	dst := make([]float64, 0, 5*16)
	if n := testing.AllocsPerRun(200, func() { dst = FeatureVectorInto(dst, Window{Data: m}) }); n != 0 {
		t.Fatalf("FeatureVectorInto allocates %v times per call with a sized dst, want 0", n)
	}
}

var featureSink []float64

func BenchmarkFeatureVector(b *testing.B) {
	rng := tensor.NewRNG(5)
	wins := make([]Window, 128)
	for i := range wins {
		m := tensor.New(100, 16)
		for j := range m.Data {
			m.Data[j] = rng.NormFloat64()
		}
		wins[i] = Window{Data: m}
	}
	dst := make([]float64, 0, 5*16)
	// hot: the same window every call — the branch predictor learns it.
	b.Run("hot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			featureSink = FeatureVectorInto(dst, wins[0])
		}
	})
	// fleet: a different session's window every call, as a shard's batch is.
	b.Run("fleet", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			featureSink = FeatureVectorInto(dst, wins[i%len(wins)])
		}
	})
}
