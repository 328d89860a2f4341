package signal

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Design errors returned by the filter constructors.
var (
	errBadOrder = fmt.Errorf("signal: filter order must be >= 1")
	errBadBand  = fmt.Errorf("signal: band edges must satisfy 0 < low < high < fs/2")
	errBadFreq  = fmt.Errorf("signal: frequency must lie in (0, fs/2)")
)

// Butterworth designs an order-n analog Butterworth low-pass prototype and
// transforms it into a digital band-pass filter with edges [lowHz, highHz] at
// sample rate fsHz using the band-pass transform followed by the bilinear
// transform. The result has 2n poles realised as n biquad sections.
//
// CognitiveArm uses n = 9, low = 0.5 Hz, high = 45 Hz at fs = 125 Hz
// (paper §III-A3).
func Butterworth(n int, lowHz, highHz, fsHz float64) (*Cascade, error) {
	if n < 1 {
		return nil, errBadOrder
	}
	if !(0 < lowHz && lowHz < highHz && highHz < fsHz/2) {
		return nil, errBadBand
	}
	// Pre-warped analog edge frequencies for the bilinear transform with
	// s = (z-1)/(z+1) (i.e. T = 2).
	w1 := math.Tan(math.Pi * lowHz / fsHz)
	w2 := math.Tan(math.Pi * highHz / fsHz)
	w0 := math.Sqrt(w1 * w2) // analog centre
	bw := w2 - w1            // analog bandwidth

	// Unit-cutoff Butterworth low-pass prototype poles (left half-plane).
	proto := make([]complex128, n)
	for k := 0; k < n; k++ {
		theta := math.Pi * float64(2*k+n+1) / float64(2*n)
		proto[k] = cmplx.Exp(complex(0, theta))
	}

	// Low-pass → band-pass: each prototype pole p yields two poles solving
	// s² − (bw·p)s + w0² = 0.
	poles := make([]complex128, 0, 2*n)
	for _, p := range proto {
		bp := complex(bw, 0) * p
		disc := cmplx.Sqrt(bp*bp - complex(4*w0*w0, 0))
		poles = append(poles, (bp+disc)/2, (bp-disc)/2)
	}

	// Bilinear transform: z = (1+s)/(1-s). Analog zeros are n at s=0 and n at
	// s=∞, mapping to n digital zeros at z=+1 and n at z=−1; each biquad gets
	// one of each, i.e. numerator z² − 1.
	zPoles := make([]complex128, len(poles))
	for i, s := range poles {
		zPoles[i] = (1 + s) / (1 - s)
	}

	// Pair poles into conjugate biquads. Poles come out in conjugate pairs by
	// construction (adjacent entries for real-axis symmetry); sort-free
	// pairing: match each pole with its conjugate.
	sections := make([]Biquad, 0, n)
	used := make([]bool, len(zPoles))
	for i := range zPoles {
		if used[i] {
			continue
		}
		used[i] = true
		p1 := zPoles[i]
		// find the closest conjugate partner
		best, bestDist := -1, math.Inf(1)
		for j := i + 1; j < len(zPoles); j++ {
			if used[j] {
				continue
			}
			d := cmplx.Abs(zPoles[j] - cmplx.Conj(p1))
			if d < bestDist {
				best, bestDist = j, d
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("signal: internal pole pairing failure")
		}
		used[best] = true
		p2 := zPoles[best]
		// (z−p1)(z−p2) = z² − (p1+p2)z + p1·p2; coefficients are real up to
		// rounding for conjugate pairs.
		a1 := -real(p1 + p2)
		a2 := real(p1 * p2)
		sections = append(sections, Biquad{B0: 1, B1: 0, B2: -1, A1: a1, A2: a2})
	}

	c := NewCascade(sections...)
	// Normalise so the gain at the digital centre frequency is exactly 1.
	fc := math.Sqrt(lowHz * highHz)
	g := c.GainAt(fc, fsHz)
	if g <= 0 || math.IsNaN(g) || math.IsInf(g, 0) {
		return nil, fmt.Errorf("signal: degenerate design (gain %v at %v Hz)", g, fc)
	}
	scale := math.Pow(1/g, 1/float64(len(c.Sections)))
	for i := range c.Sections {
		c.Sections[i].B0 *= scale
		c.Sections[i].B1 *= scale
		c.Sections[i].B2 *= scale
	}
	if !c.Stable() {
		return nil, fmt.Errorf("signal: unstable design for n=%d band=[%g,%g] fs=%g", n, lowHz, highHz, fsHz)
	}
	return c, nil
}

// Notch designs a single-biquad notch filter at freqHz with the given quality
// factor (RBJ audio-EQ cookbook form). CognitiveArm uses 50 Hz, Q = 30 to
// suppress powerline interference.
func Notch(freqHz, q, fsHz float64) (*Cascade, error) {
	if !(0 < freqHz && freqHz < fsHz/2) {
		return nil, errBadFreq
	}
	if q <= 0 {
		return nil, fmt.Errorf("signal: notch Q must be positive")
	}
	w0 := 2 * math.Pi * freqHz / fsHz
	alpha := math.Sin(w0) / (2 * q)
	cosw := math.Cos(w0)
	a0 := 1 + alpha
	b := Biquad{
		B0: 1 / a0,
		B1: -2 * cosw / a0,
		B2: 1 / a0,
		A1: -2 * cosw / a0,
		A2: (1 - alpha) / a0,
	}
	return NewCascade(b), nil
}

// GainAt evaluates the cascade's magnitude response at freqHz for sample rate
// fsHz by direct evaluation on the unit circle.
func (c *Cascade) GainAt(freqHz, fsHz float64) float64 {
	w := 2 * math.Pi * freqHz / fsHz
	z := cmplx.Exp(complex(0, w))
	zi := 1 / z
	h := complex(1, 0)
	for _, q := range c.Sections {
		num := complex(q.B0, 0) + complex(q.B1, 0)*zi + complex(q.B2, 0)*zi*zi
		den := complex(1, 0) + complex(q.A1, 0)*zi + complex(q.A2, 0)*zi*zi
		h *= num / den
	}
	return cmplx.Abs(h)
}

// EEGPreprocessor bundles the paper's preprocessing chain: Butterworth
// band-pass (order, low, high) followed by a notch. It holds one channel's
// state: the offline zero-phase path (FilterOffline) and single-channel
// streaming use it directly; multichannel streaming builds one Bank from its
// two cascades (NewBank) rather than one instance per channel.
type EEGPreprocessor struct {
	Bandpass *Cascade
	Notch    *Cascade
}

// NewEEGPreprocessor constructs the chain used throughout CognitiveArm:
// a 9th-order 0.5–45 Hz Butterworth band-pass and a 50 Hz, Q=30 notch.
func NewEEGPreprocessor(fsHz float64) (*EEGPreprocessor, error) {
	bp, err := Butterworth(9, 0.5, 45, fsHz)
	if err != nil {
		return nil, fmt.Errorf("bandpass design: %w", err)
	}
	nf, err := Notch(50, 30, fsHz)
	if err != nil {
		return nil, fmt.Errorf("notch design: %w", err)
	}
	return &EEGPreprocessor{Bandpass: bp, Notch: nf}, nil
}

// Process filters one streaming sample (causal path used in the real-time
// control loop).
//
//cogarm:zeroalloc
func (p *EEGPreprocessor) Process(x float64) float64 {
	return p.Notch.Process(p.Bandpass.Process(x))
}

// Reset clears all filter state.
func (p *EEGPreprocessor) Reset() {
	p.Bandpass.Reset()
	p.Notch.Reset()
}

// FilterOffline applies the chain with zero-phase filtering, the variant used
// during dataset preparation where future samples are available.
func (p *EEGPreprocessor) FilterOffline(src []float64) []float64 {
	return p.Notch.FiltFilt(p.Bandpass.FiltFilt(src))
}
