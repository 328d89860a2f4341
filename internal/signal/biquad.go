// Package signal implements the DSP substrate of CognitiveArm: IIR filter
// design (Butterworth band-pass, notch), zero-phase filtering, FFT-based
// spectral analysis, and EEG artifact detection/repair. It mirrors the
// preprocessing stage the paper performs with BrainFlow (§III-A3): a 9th-order
// Butterworth band-pass retaining 0.5–45 Hz and a 50 Hz notch with Q = 30.
package signal

import "fmt"

// Biquad is a single second-order IIR section in direct form II transposed:
//
//	y[n] = b0·x[n] + b1·x[n-1] + b2·x[n-2] − a1·y[n-1] − a2·y[n-2]
//
// with a0 normalised to 1.
type Biquad struct {
	B0, B1, B2 float64
	A1, A2     float64
	z1, z2     float64 // DF2T state
}

// Process filters a single sample through the section.
func (q *Biquad) Process(x float64) float64 {
	y := q.B0*x + q.z1
	q.z1 = q.B1*x - q.A1*y + q.z2
	q.z2 = q.B2*x - q.A2*y
	return y
}

// Reset clears the section's internal state.
func (q *Biquad) Reset() { q.z1, q.z2 = 0, 0 }

// Stable reports whether both poles lie strictly inside the unit circle,
// using the triangle stability conditions for a real biquad.
func (q *Biquad) Stable() bool {
	return q.A2 < 1 && q.A2 > -1 && q.A1 < 1+q.A2 && q.A1 > -(1+q.A2)
}

// Cascade is a chain of biquad sections applied in series, the standard
// numerically-robust realisation of high-order IIR filters.
type Cascade struct {
	Sections []Biquad
}

// NewCascade builds a cascade from the given sections (copied).
func NewCascade(sections ...Biquad) *Cascade {
	c := &Cascade{Sections: make([]Biquad, len(sections))}
	copy(c.Sections, sections)
	return c
}

// Process filters one sample through all sections in order.
func (c *Cascade) Process(x float64) float64 {
	for i := range c.Sections {
		x = c.Sections[i].Process(x)
	}
	return x
}

// Reset clears the state of every section.
func (c *Cascade) Reset() {
	for i := range c.Sections {
		c.Sections[i].Reset()
	}
}

// Stable reports whether every section is stable.
func (c *Cascade) Stable() bool {
	for i := range c.Sections {
		if !c.Sections[i].Stable() {
			return false
		}
	}
	return true
}

// Order returns the filter order (2 per section).
func (c *Cascade) Order() int { return 2 * len(c.Sections) }

// Filter applies the cascade to src, writing into a new slice. The cascade
// state is reset first, so repeated calls are independent.
func (c *Cascade) Filter(src []float64) []float64 {
	c.Reset()
	out := make([]float64, len(src))
	for i, x := range src {
		out[i] = c.Process(x)
	}
	return out
}

// FiltFilt applies the cascade forward and backward for zero-phase filtering
// (the offline variant used during dataset preparation; the real-time path
// uses causal Filter). Edge transients are reduced by reflecting ~3× the
// filter order of samples at each end.
func (c *Cascade) FiltFilt(src []float64) []float64 {
	n := len(src)
	if n == 0 {
		return nil
	}
	pad := 3 * c.Order()
	if pad >= n {
		pad = n - 1
	}
	ext := make([]float64, 0, n+2*pad)
	for i := pad; i >= 1; i-- { // odd reflection of the head
		ext = append(ext, 2*src[0]-src[i])
	}
	ext = append(ext, src...)
	for i := n - 2; i >= n-1-pad && i >= 0; i-- { // odd reflection of the tail
		ext = append(ext, 2*src[n-1]-src[i])
	}
	fwd := c.Filter(ext)
	reverse(fwd)
	bwd := c.Filter(fwd)
	reverse(bwd)
	out := make([]float64, n)
	copy(out, bwd[pad:pad+n])
	return out
}

func reverse(v []float64) {
	for i, j := 0, len(v)-1; i < j; i, j = i+1, j-1 {
		v[i], v[j] = v[j], v[i]
	}
}

// String renders the cascade coefficients, one section per line.
func (c *Cascade) String() string {
	s := ""
	for i, q := range c.Sections {
		s += fmt.Sprintf("section %d: b=[%.6g %.6g %.6g] a=[1 %.6g %.6g]\n",
			i, q.B0, q.B1, q.B2, q.A1, q.A2)
	}
	return s
}
