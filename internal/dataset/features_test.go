package dataset

import (
	"math"
	"testing"

	"cognitivearm/internal/tensor"
)

// refFeatureVector is the definition the kernels must reproduce bit for bit:
// one channel at a time down its stride-Cols column, sum and sum of squares in
// ascending row order, the extremes from columnMinMax.
func refFeatureVector(w Window) []float64 {
	nch := w.Data.Cols
	out := make([]float64, 0, 5*nch)
	for c := 0; c < nch; c++ {
		var sum, sq float64
		for t := 0; t < w.Data.Rows; t++ {
			v := w.Data.At(t, c)
			sum += v
			sq += v * v
		}
		lo, hi := columnMinMax(w.Data.Data, c, nch)
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

// TestFeatureVectorMatchesReference compares three implementations by bits:
// FeatureVectorInto (the assembly routine on the leading channels&^7, where
// the build and the CPU have one, the portable kernels on the rest),
// featuresPortable called directly on every channel, and refFeatureVector.
// Column counts cover every split between the 8-wide routine, the 4-wide
// block and the single-channel loop; row counts the empty, one-row and odd
// windows around the serving 100. Windows are random, then salted with the
// values whose min/max handling is easy to change by accident — NaN (never
// selected), ±Inf, −0 beside +0 (the first seen stays) — at random and at
// chosen rows.
func TestFeatureVectorMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	specials := []float64{math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero, 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64}
	rng := tensor.NewRNG(31)
	check := func(name string, m *tensor.Matrix) {
		t.Helper()
		want := refFeatureVector(Window{Data: m})
		for leg, got := range map[string][]float64{
			"FeatureVectorInto": FeatureVectorInto(make([]float64, 0, 5*m.Cols), Window{Data: m}),
			"featuresPortable":  featuresPortable(make([]float64, 0, 5*m.Cols), m.Data, m.Rows, m.Cols, 0),
		} {
			if len(got) != len(want) {
				t.Fatalf("%s, %s %d×%d: %d features, want %d", leg, name, m.Rows, m.Cols, len(got), len(want))
			}
			for i := range want {
				// A NaN mean/std/var need only be a NaN: when two NaNs of different
				// payload meet in an add, x86 keeps the first operand's, and which
				// operand of a commutative add comes first is the register
				// allocator's choice. min and max are never NaN.
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					t.Fatalf("%s, %s %d×%d: feature %d (channel %d, %s) = %v (%#x), reference %v (%#x)", leg, name, m.Rows, m.Cols,
						i, i/5, []string{"mean", "std", "min", "max", "var"}[i%5], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
	random := func(m *tensor.Matrix, offset float64) {
		for i := range m.Data {
			m.Data[i] = offset + 10*rng.NormFloat64()
		}
	}
	for _, cols := range []int{1, 4, 7, 8, 9, 12, 16, 17, 24} {
		for _, rows := range []int{0, 1, 2, 99, 100, 101, 190} {
			m := tensor.New(rows, cols)
			check("zero", m)
			if rows == 0 {
				continue
			}
			for trial := 0; trial < 20; trial++ {
				random(m, 0)
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
			// Every special in every column, alone in its column: as the first
			// row, the last and one in the middle.
			for _, row := range []int{0, rows / 2, rows - 1} {
				for shift := range specials {
					random(m, 0)
					for c := 0; c < cols; c++ {
						m.Set(row, c, specials[(c+shift)%len(specials)])
					}
					check("one special per column", m)
				}
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
			if rows < 99 {
				continue
			}
			// Each column holds both zeros as its extreme — its minimum when the
			// rest is positive, its maximum when negative — and the earlier one
			// must be reported. Then a tied extreme with a NaN between its two
			// occurrences and the opposite extreme with a NaN right after it:
			// a NaN must neither be selected nor make the kernel forget.
			for _, offset := range []float64{1000, -1000} {
				for _, zeros := range [][2]float64{{negZero, 0}, {0, negZero}} {
					random(m, offset)
					for c := 0; c < cols; c++ {
						m.Set(3+c%5, c, zeros[0])
						m.Set(rows-4-c%7, c, zeros[1])
					}
					check("both zeros in a column", m)
				}
				random(m, offset)
				for c := 0; c < cols; c++ {
					a, b := 3+c%5, rows-4-c%7
					m.Set(a, c, 1e3*offset)
					m.Set((a+b)/2, c, math.NaN())
					m.Set(b, c, 1e3*offset)
					m.Set(b+1, c, -1e3*offset)
					m.Set(b+2, c, math.NaN())
				}
				check("NaN beside the extremes", m)
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

// BenchmarkFeatureVectorInto is one serving window (100×16) through each
// kernel set: hot is the same window every call, which the branch predictor
// learns; fleet a different session's window every call, as a shard's batch is.
func BenchmarkFeatureVectorInto(b *testing.B) {
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
	for _, k := range []struct {
		name     string
		features func([]float64, Window) []float64
	}{
		{"asm", FeatureVectorInto}, // the portable kernels too, where there is no assembly
		{"portable", func(dst []float64, w Window) []float64 {
			return featuresPortable(dst[:0], w.Data.Data, w.Data.Rows, w.Data.Cols, 0)
		}},
	} {
		for _, fleet := range []struct {
			name string
			mask int
		}{{"hot", 0}, {"fleet", len(wins) - 1}} {
			b.Run(k.name+"/"+fleet.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					featureSink = k.features(dst, wins[i&fleet.mask])
				}
			})
		}
	}
}

func TestStatsStdForAllocs(t *testing.T) {
	s := Stats{Mean: make([]float64, 16), Std: make([]float64, 16)}
	s.Std[3] = 2
	if n := testing.AllocsPerRun(200, func() { stdSink = s.StdFor(3) + s.StdFor(4) + s.StdFor(99) }); n != 0 {
		t.Fatalf("StdFor allocates %v times per call, want 0", n)
	}
}

var stdSink float64
