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

func BenchmarkBankProcess(b *testing.B) {
	bank := eegBank(b, 16)
	in, x := make([]float64, 16), make([]float64, 16)
	for i := range in {
		in[i] = float64(i) - 7.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, in)
		bank.Process(x)
	}
}
