//go:build linux && amd64 && !purego

package signal

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"cognitivearm/internal/cpu"
	"cognitivearm/internal/cpu/guardpage"
)

// TestBankGuardPages is the memory-safety pin for the assembly routine: the
// coefficients, both state slabs and the sample each sit flush against an
// unmapped page, first at their end, then at their start, at the serving
// shape and at widths with and without a remainder. An access one byte
// outside what Go bounds-checked kills the test binary with a fault; results
// are still checked against one Cascade per channel.
func TestBankGuardPages(t *testing.T) {
	if !cpu.HasAVX2 {
		t.Skip("no AVX2: the assembly routine does not run on this CPU")
	}
	pre, err := NewEEGPreprocessor(125)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for _, tc := range []struct {
		channels int
		chain    []*Cascade
	}{
		{16, []*Cascade{pre.Bandpass, pre.Notch}}, // serving
		{18, []*Cascade{pre.Bandpass, pre.Notch}},
		{4, []*Cascade{pre.Notch}},
		{7, []*Cascade{pre.Notch}},
		{3, []*Cascade{pre.Bandpass}}, // no full group: portable only
	} {
		for _, atEnd := range []bool{true, false} {
			plain := NewBank(tc.channels, tc.chain...)
			sections, n := len(plain.coef), tc.channels
			coef := guardpage.Floats(t, sections*int(unsafe.Sizeof(Biquad{})/8), atEnd)
			bank := &Bank{
				coef:     unsafe.Slice((*Biquad)(unsafe.Pointer(&coef[0])), sections),
				z1:       guardpage.Floats(t, sections*n, atEnd),
				z2:       guardpage.Floats(t, sections*n, atEnd),
				channels: n,
			}
			copy(bank.coef, plain.coef)
			ref := make([]*Cascade, n)
			for ch := range ref {
				ref[ch] = NewCascade(plain.coef...)
			}
			x := guardpage.Floats(t, n, atEnd)
			for step := 0; step < 300; step++ {
				want := make([]float64, n)
				for ch := range x {
					x[ch] = 40 * rng.NormFloat64()
					want[ch] = ref[ch].Process(x[ch])
				}
				bank.Process(x)
				for ch := range x {
					if math.Float64bits(x[ch]) != math.Float64bits(want[ch]) {
						t.Fatalf("%d channels × %d sections, fence at end %v, step %d, channel %d: bank %v, cascade %v",
							n, sections, atEnd, step, ch, x[ch], want[ch])
					}
				}
			}
			for ch, st := range bank.State() {
				for s, q := range ref[ch].Sections {
					if math.Float64bits(st[2*s]) != math.Float64bits(q.z1) || math.Float64bits(st[2*s+1]) != math.Float64bits(q.z2) {
						t.Fatalf("%d channels × %d sections, fence at end %v: channel %d section %d state differs from the cascade's",
							n, sections, atEnd, ch, s)
					}
				}
			}
		}
	}
}
