package signal

import "fmt"

// Bank runs one filter chain over many channels at once: the streaming,
// multichannel form of a cascade (or several cascades in series). The
// coefficients exist once; the DF2T delay state is laid [section][channel],
// so Process walks sections outer / channels inner and every step of the
// inner loop is independent of its neighbours. A per-channel Cascade chains
// every biquad on the previous one's output, which binds a sample to the
// latency of sections×(multiply+add); the bank is bound by floating-point
// throughput instead. Each element is computed by the same expressions as
// Biquad.Process, so the output is bit-identical to running one Cascade per
// channel (and FMA-fusing targets fuse both the same way).
//
// A Bank is single-stream state and must not be shared across goroutines.
type Bank struct {
	coef     []Biquad  // one per section; the z fields are unused
	z1, z2   []float64 // [section][channel]
	channels int
}

// NewBank builds a bank of the given width that applies the chain's cascades
// in order (their coefficients are copied; their state is not).
func NewBank(channels int, chain ...*Cascade) *Bank {
	var coef []Biquad
	for _, c := range chain {
		for _, q := range c.Sections {
			q.Reset()
			coef = append(coef, q)
		}
	}
	z := make([]float64, 2*len(coef)*channels)
	return &Bank{coef: coef, z1: z[:len(z)/2], z2: z[len(z)/2:], channels: channels}
}

// Process filters one multichannel sample in place: x[ch] advances channel
// ch's chain by one step. len(x) must equal the bank's width.
//
// Where the cpu gate allows, an AVX2 routine takes the leading channels&^3
// columns, four per register (bank_amd64.s); processPortable takes the rest —
// every column on other architectures, under -tags purego and on CPUs without
// AVX2. Both compute Biquad.Process's expressions in its order, unfused, so
// which one ran changes no bit.
func (b *Bank) Process(x []float64) {
	x = x[:b.channels]
	if from := b.processAVX2(x); from < len(x) {
		b.processPortable(x, from)
	}
}

// processPortable advances channels from..channels-1 by one sample.
func (b *Bank) processPortable(x []float64, from int) {
	n := b.channels
	x = x[from:n]
	for s, q := range b.coef {
		// Coefficients in locals: stores to z1/z2 could alias b.coef as far
		// as the compiler knows, and would force a reload per element.
		b0, b1, b2, a1, a2 := q.B0, q.B1, q.B2, q.A1, q.A2
		z1 := b.z1[s*n+from:][:len(x)]
		z2 := b.z2[s*n+from:][:len(x)]
		for ch, v := range x {
			y := b0*v + z1[ch]
			z1[ch] = b1*v - a1*y + z2[ch]
			z2[ch] = b2*v - a2*y
			x[ch] = y
		}
	}
}

// State exports every channel's delay state as [z1, z2] per section in chain
// order — the layout a per-channel cascade would report — one slice per
// channel, all cut from a single backing slab. Together with the (immutable)
// coefficients it fully determines the bank's future output, which is what a
// streaming checkpoint needs to resume a causal filter mid-signal.
func (b *Bank) State() [][]float64 {
	n, per := b.channels, 2*len(b.coef)
	out := make([][]float64, n)
	slab := make([]float64, n*per)
	for ch := range out {
		out[ch] = slab[ch*per : (ch+1)*per : (ch+1)*per]
	}
	return b.StateInto(out)
}

// StateInto is State into dst's storage: dst and each of its channel slices
// are reused when they are large enough and allocated only when not, so a
// caller exporting the state of many banks of one shape allocates nothing
// after the first.
func (b *Bank) StateInto(dst [][]float64) [][]float64 {
	n, per := b.channels, 2*len(b.coef)
	if cap(dst) < n {
		dst = make([][]float64, n)
	}
	dst = dst[:n]
	for ch := range dst {
		st := dst[ch]
		if cap(st) < per {
			st = make([]float64, per)
		}
		st = st[:per]
		for s := range b.coef {
			st[2*s], st[2*s+1] = b.z1[s*n+ch], b.z2[s*n+ch]
		}
		dst[ch] = st
	}
	return dst
}

// SetState restores delay state previously exported by State. Every length
// is checked before anything is written: a refused state leaves the bank
// exactly as it was.
func (b *Bank) SetState(state [][]float64) error {
	n, per := b.channels, 2*len(b.coef)
	if len(state) != n {
		return fmt.Errorf("signal: bank state has %d channels, want %d", len(state), n)
	}
	for ch, st := range state {
		if len(st) != per {
			return fmt.Errorf("signal: bank state channel %d has %d values, want %d", ch, len(st), per)
		}
	}
	for ch, st := range state {
		for s := range b.coef {
			b.z1[s*n+ch], b.z2[s*n+ch] = st[2*s], st[2*s+1]
		}
	}
	return nil
}
