package signal

import (
	"math"
	"math/rand"
	"testing"
)

// perChannel is the reference a Bank must match bit for bit: one
// EEGPreprocessor per channel, each sample walked channel by channel.
func perChannel(t testing.TB, channels int) []*EEGPreprocessor {
	pres := make([]*EEGPreprocessor, channels)
	for i := range pres {
		p, err := NewEEGPreprocessor(125)
		if err != nil {
			t.Fatal(err)
		}
		pres[i] = p
	}
	return pres
}

func eegBank(t testing.TB, channels int) *Bank {
	p, err := NewEEGPreprocessor(125)
	if err != nil {
		t.Fatal(err)
	}
	return NewBank(channels, p.Bandpass, p.Notch)
}

// TestBankMatchesPerChannelCascade drives a Bank and per-channel
// preprocessors through the same stream — denormals, then normal values,
// then ±Inf (after which everything is NaN) — and compares output bits on
// every sample and the exported state against the biquads' own z1/z2.
func TestBankMatchesPerChannelCascade(t *testing.T) {
	for _, channels := range []int{1, 3, 4, 8, 16, 17} {
		bank, pres := eegBank(t, channels), perChannel(t, channels)
		rng := rand.New(rand.NewSource(int64(channels)))
		x := make([]float64, channels)
		for i := 0; i < 600; i++ {
			for ch := range x {
				v := 40 * rng.NormFloat64()
				switch {
				case i < 200: // denormal inputs into fresh filters: denormal state throughout
					v = math.Float64frombits(uint64(rng.Int63n(1 << 40)))
					if rng.Intn(2) == 0 {
						v = -v
					}
				case i >= 550 && rng.Intn(5) == 0:
					v = math.Inf(rng.Intn(2)*2 - 1)
				}
				x[ch] = v
			}
			want := make([]float64, channels)
			for ch, v := range x {
				want[ch] = pres[ch].Process(v)
			}
			bank.Process(x)
			for ch := range x {
				if math.Float64bits(x[ch]) != math.Float64bits(want[ch]) {
					t.Fatalf("%d channels, sample %d, channel %d: bank %v (%#x), cascade %v (%#x)",
						channels, i, ch, x[ch], math.Float64bits(x[ch]), want[ch], math.Float64bits(want[ch]))
				}
			}
			if i%50 != 49 {
				continue
			}
			for ch, st := range bank.State() {
				var ref []float64
				for _, c := range []*Cascade{pres[ch].Bandpass, pres[ch].Notch} {
					for _, q := range c.Sections {
						ref = append(ref, q.z1, q.z2)
					}
				}
				if len(st) != len(ref) {
					t.Fatalf("channel %d state has %d values, want %d", ch, len(st), len(ref))
				}
				for k := range st {
					if math.Float64bits(st[k]) != math.Float64bits(ref[k]) {
						t.Fatalf("%d channels, sample %d: channel %d state[%d] differs from the cascade's", channels, i, ch, k)
					}
				}
			}
		}
	}
}

func TestBankSetState(t *testing.T) {
	const channels = 5
	a, b := eegBank(t, channels), eegBank(t, channels)
	x := make([]float64, channels)
	for i := 0; i < 40; i++ {
		for ch := range x {
			x[ch] = math.Sin(float64(i*(ch+1))) * 25
		}
		a.Process(x)
	}
	good := a.State()
	good[0][0] = math.Copysign(0, -1) // state travels as bits
	good[1][1] = math.NaN()
	if err := b.SetState(good); err != nil {
		t.Fatal(err)
	}
	back := b.State()
	for ch := range good {
		for k := range good[ch] {
			if math.Float64bits(back[ch][k]) != math.Float64bits(good[ch][k]) {
				t.Fatalf("channel %d state[%d] did not round-trip", ch, k)
			}
		}
	}
	back[2][0]++ // exported state is a copy
	if got := b.State(); got[2][0] == back[2][0] {
		t.Fatal("State shares memory with the bank")
	}

	// A refusal at any channel writes nothing.
	lastShort := append([][]float64(nil), good...)
	lastShort[channels-1] = lastShort[channels-1][:4]
	for name, bad := range map[string][][]float64{
		"nil": nil, "missing channel": good[:channels-1], "last channel short": lastShort,
	} {
		if err := b.SetState(bad); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		after := b.State()
		for ch := range good {
			for k := range good[ch] {
				if math.Float64bits(after[ch][k]) != math.Float64bits(good[ch][k]) {
					t.Fatalf("%s: refused state changed channel %d", name, ch)
				}
			}
		}
	}
}

func TestBankAllocs(t *testing.T) {
	bank := eegBank(t, 16)
	x := make([]float64, 16)
	if n := testing.AllocsPerRun(500, func() { bank.Process(x) }); n != 0 {
		t.Fatalf("Process allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = bank.State() }); n > 2 {
		t.Fatalf("State allocates %v times per call, want at most 2", n)
	}
}

// specials are the values a kernel most easily treats differently from the
// scalar code: both zeros, the smallest denormals, the largest finite values
// (their products overflow), the infinities and two NaNs.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
}

// sameBits compares bit patterns, NaN payloads included: the assembly routine
// gives every operation its operands in the order gc's scalar code does, so
// even the NaN that survives when two meet is the same one.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestBankKernelDifferential runs three implementations of one filter step
// over the same salted stream and compares every output and the delay state by
// bits: Bank.Process (the assembly routine plus the portable remainder, where
// the build and the CPU have one), processPortable called directly on every
// column, and one Cascade per channel stepped sample by sample. Widths cover
// no full group, exact groups and each remainder; sections cover the empty
// chain, one biquad and the serving chain. Every 128 steps all three restart
// from the same random state (an ±Inf or NaN in a recursive filter is
// otherwise the end of that channel's test).
func TestBankKernelDifferential(t *testing.T) {
	pre, err := NewEEGPreprocessor(125)
	if err != nil {
		t.Fatal(err)
	}
	chains := map[int][]*Cascade{0: nil, 1: {pre.Notch}, 10: {pre.Bandpass, pre.Notch}}
	for _, sections := range []int{0, 1, 10} {
		for _, channels := range []int{1, 3, 4, 5, 8, 15, 16, 17, 20} {
			chain := chains[sections]
			asm, portable := NewBank(channels, chain...), NewBank(channels, chain...)
			if len(asm.coef) != sections {
				t.Fatalf("chain has %d sections, want %d", len(asm.coef), sections)
			}
			ref := make([]*Cascade, channels)
			for ch := range ref {
				ref[ch] = NewCascade(asm.coef...)
			}
			rng := rand.New(rand.NewSource(int64(100*sections + channels)))
			value := func() float64 {
				switch rng.Intn(64) {
				case 0:
					return specials[rng.Intn(len(specials))]
				case 1:
					return math.Float64frombits(uint64(rng.Int63n(1 << 40))) // denormal
				}
				return 40 * rng.NormFloat64()
			}
			xa, xp, want := make([]float64, channels), make([]float64, channels), make([]float64, channels)
			for step := 0; step < 5120; step++ {
				if step%128 == 0 {
					state := make([][]float64, channels)
					for ch := range state {
						state[ch] = make([]float64, 2*sections)
						for k := range state[ch] {
							state[ch][k] = value()
						}
						for s := range ref[ch].Sections {
							ref[ch].Sections[s].z1, ref[ch].Sections[s].z2 = state[ch][2*s], state[ch][2*s+1]
						}
					}
					if err := asm.SetState(state); err != nil {
						t.Fatal(err)
					}
					if err := portable.SetState(state); err != nil {
						t.Fatal(err)
					}
				}
				for ch := range xa {
					v := value()
					xa[ch], xp[ch], want[ch] = v, v, ref[ch].Process(v)
				}
				asm.Process(xa)
				portable.processPortable(xp, 0)
				for ch := range want {
					if !sameBits(xa[ch], want[ch]) || !sameBits(xp[ch], want[ch]) {
						t.Fatalf("%d sections × %d channels, step %d, channel %d: Process %v (%#x), processPortable %v (%#x), cascade %v (%#x)",
							sections, channels, step, ch, xa[ch], math.Float64bits(xa[ch]), xp[ch], math.Float64bits(xp[ch]), want[ch], math.Float64bits(want[ch]))
					}
				}
				if step%128 != 127 {
					continue
				}
				sa, sp := asm.State(), portable.State()
				for ch := range ref {
					for s, q := range ref[ch].Sections {
						for k, z := range []float64{q.z1, q.z2} {
							if !sameBits(sa[ch][2*s+k], z) || !sameBits(sp[ch][2*s+k], z) {
								t.Fatalf("%d sections × %d channels, step %d, channel %d, section %d: state z%d is %v (Process), %v (processPortable), cascade has %v",
									sections, channels, step, ch, s, k+1, sa[ch][2*s+k], sp[ch][2*s+k], z)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkBankProcess is one 16-channel sample through the serving chain.
func BenchmarkBankProcess(b *testing.B) {
	for _, k := range []struct {
		name string
		step func(*Bank, []float64)
	}{
		{"asm", (*Bank).Process}, // the portable twin too, where there is no assembly
		{"portable", func(b *Bank, x []float64) { b.processPortable(x, 0) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			bank := eegBank(b, 16)
			in, x := make([]float64, 16), make([]float64, 16)
			for i := range in {
				in[i] = float64(i) - 7.5
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(x, in)
				k.step(bank, x)
			}
		})
	}
}
