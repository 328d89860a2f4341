package control

import (
	"encoding/binary"
	"math"
	"testing"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/signal"
	"cognitivearm/internal/tensor"
)

// refWindower is the signal path as it stood before the filter bank and the
// mirror buffer: one EEGPreprocessor per channel walked channel by channel,
// norm resolved per sample, the whole window shifted up on every push once
// full. It is the reference the differential tests hold Windower to, bit for
// bit (the bench reference check shares Windower with the hub, so it cannot
// catch a wrong filter).
type refWindower struct {
	pre    []*signal.EEGPreprocessor
	norm   dataset.Stats
	window *tensor.Matrix
	filled int
}

func newRefWindower(t testing.TB, channels, windowSize int, norm dataset.Stats) *refWindower {
	pre := make([]*signal.EEGPreprocessor, channels)
	for i := range pre {
		p, err := signal.NewEEGPreprocessor(125)
		if err != nil {
			t.Fatal(err)
		}
		pre[i] = p
	}
	return &refWindower{pre: pre, norm: norm, window: tensor.New(windowSize, channels)}
}

func (w *refWindower) Push(values []float64) bool {
	if len(values) < w.window.Cols {
		return false
	}
	if w.filled == w.window.Rows {
		copy(w.window.Data, w.window.Data[w.window.Cols:])
		w.filled--
	}
	row := w.window.Row(w.filled)
	for ch := range row {
		v := values[ch]
		v = w.pre[ch].Process(v)
		if ch < len(w.norm.Mean) {
			v = (v - w.norm.Mean[ch]) / w.norm.StdFor(ch)
		}
		row[ch] = v
	}
	w.filled++
	return true
}

func mustWindower(t testing.TB, channels, windowSize int, norm dataset.Stats) *Windower {
	w, err := NewWindower(125, channels, windowSize, norm)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// testNorms are the three normalisation shapes the differential tests run
// under: a full Stats, none, and the malformed Stats of
// TestWindowerMalformedStats (flat channel, Std shorter than Mean).
func testNorms(channels int) map[string]dataset.Stats {
	full := dataset.Stats{Mean: make([]float64, channels), Std: make([]float64, channels)}
	for c := range full.Mean {
		full.Mean[c] = 0.3*float64(c) - 1
		full.Std[c] = 0.5 + 0.25*float64(c)
	}
	return map[string]dataset.Stats{
		"norm":      full,
		"no norm":   {},
		"malformed": {Mean: []float64{0.5, -1.0, 2.0}, Std: []float64{0, 2}},
	}
}

// sampleStream yields normal samples with the odd huge, tiny and zero value
// mixed in, one more value per sample than channels (Push takes a prefix).
func sampleStream(seed uint64, channels int) func() []float64 {
	rng := tensor.NewRNG(seed)
	buf := make([]float64, channels+1)
	return func() []float64 {
		for i := range buf {
			v := 30 * rng.NormFloat64()
			switch rng.Intn(40) {
			case 0:
				v *= 1e300
			case 1:
				v *= 1e-310
			case 2:
				v = math.Copysign(0, v)
			}
			buf[i] = v
		}
		return buf
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameState(a, b WindowerState) bool {
	if a.Filled != b.Filled || !sameBits(a.Window, b.Window) || len(a.Filter) != len(b.Filter) {
		return false
	}
	for ch := range a.Filter {
		if !sameBits(a.Filter[ch], b.Filter[ch]) {
			return false
		}
	}
	return true
}

// TestWindowerMatchesReference: after every push over three window lengths
// the whole window — unfilled rows included — has the reference's bits.
func TestWindowerMatchesReference(t *testing.T) {
	for _, rows := range []int{1, 25} {
		for _, channels := range []int{1, 3, 4, 8, 16, 17} {
			for name, norm := range testNorms(channels) {
				w, ref := mustWindower(t, channels, rows, norm), newRefWindower(t, channels, rows, norm)
				next := sampleStream(uint64(rows*100+channels), channels)
				for i := 0; i < 3*rows; i++ {
					s := next()
					if w.Push(s) != ref.Push(s) {
						t.Fatalf("%d×%d %s: push %d accepted by one side only", rows, channels, name, i)
					}
					if w.Ready() != (ref.filled == rows) {
						t.Fatalf("%d×%d %s: Ready differs after push %d", rows, channels, name, i)
					}
					if !sameBits(w.Window().Data, ref.window.Data) {
						t.Fatalf("%d×%d %s: window differs from reference after push %d", rows, channels, name, i)
					}
				}
				if w.Push(make([]float64, channels-1)) {
					t.Fatalf("%d×%d %s: short sample accepted", rows, channels, name)
				}
				if !sameBits(w.Window().Data, ref.window.Data) {
					t.Fatalf("%d×%d %s: refused sample changed the window", rows, channels, name)
				}
			}
		}
	}
}

// TestWindowerStateRoundTripEveryPosition snapshots at fill 0, mid-window,
// exactly full and every write position past the wrap, restores into a fresh
// Windower, and demands the snapshot back exactly and a bit-identical
// continuation against the uninterrupted reference.
func TestWindowerStateRoundTripEveryPosition(t *testing.T) {
	const rows, channels = 12, 5
	norm := testNorms(channels)["norm"]
	for pushed := 0; pushed < 2*rows; pushed++ {
		src, ref := mustWindower(t, channels, rows, norm), newRefWindower(t, channels, rows, norm)
		next := sampleStream(7, channels)
		for i := 0; i < pushed; i++ {
			s := next()
			src.Push(s)
			ref.Push(s)
		}
		st := src.State()
		if st.Filled != min(pushed, rows) || !sameBits(st.Window, ref.window.Data) {
			t.Fatalf("after %d pushes: State is not the reference window in logical order", pushed)
		}
		dst := mustWindower(t, channels, rows, norm)
		dst.Push(next()) // restore must not depend on starting fresh
		if err := dst.SetState(st); err != nil {
			t.Fatal(err)
		}
		if !sameState(dst.State(), st) {
			t.Fatalf("after %d pushes: State→SetState→State changed the snapshot", pushed)
		}
		next = sampleStream(8, channels)
		for i := 0; i < 2*rows+3; i++ {
			s := next()
			dst.Push(s)
			ref.Push(s)
			if !sameBits(dst.Window().Data, ref.window.Data) {
				t.Fatalf("restored after %d pushes: diverged from reference %d pushes later", pushed, i+1)
			}
		}
	}
}

// TestWindowerSetStateRefusalLeavesStateUntouched: a snapshot refused for any
// reason — including a bad filter length on the last channel, which used to
// be noticed only after the earlier channels were overwritten — must leave
// the signal path exactly as it was.
func TestWindowerSetStateRefusalLeavesStateUntouched(t *testing.T) {
	const rows, channels = 10, 4
	norm := testNorms(channels)["norm"]
	donor := mustWindower(t, channels, rows, norm)
	next := sampleStream(3, channels)
	for i := 0; i < rows+4; i++ {
		donor.Push(next())
	}
	good := donor.State()
	lastShort := append([][]float64(nil), good.Filter...)
	lastShort[channels-1] = lastShort[channels-1][:3]
	firstLong := append([][]float64(nil), good.Filter...)
	firstLong[0] = append(append([]float64(nil), firstLong[0]...), 1)
	for name, bad := range map[string]WindowerState{
		"negative filled":      {Filled: -1, Window: good.Window, Filter: good.Filter},
		"overfull":             {Filled: rows + 1, Window: good.Window, Filter: good.Filter},
		"short window":         {Filled: 2, Window: good.Window[:5], Filter: good.Filter},
		"missing channel":      {Filled: 2, Window: good.Window, Filter: good.Filter[:channels-1]},
		"extra channel":        {Filled: 2, Window: good.Window, Filter: append(good.Filter[:channels:channels], good.Filter[0])},
		"last channel short":   {Filled: 2, Window: good.Window, Filter: lastShort},
		"first channel long":   {Filled: 2, Window: good.Window, Filter: firstLong},
		"nil filter":           {Filled: 2, Window: good.Window},
		"everything malformed": {Filled: 99, Filter: [][]float64{{1}}},
	} {
		w, twin := mustWindower(t, channels, rows, norm), mustWindower(t, channels, rows, norm)
		next := sampleStream(4, channels)
		for i := 0; i < rows+7; i++ {
			s := next()
			w.Push(s)
			twin.Push(s)
		}
		if err := w.SetState(bad); err == nil {
			t.Fatalf("%s: invalid state accepted", name)
		}
		if !sameState(w.State(), twin.State()) {
			t.Fatalf("%s: refused snapshot changed the windower's state", name)
		}
		for i := 0; i < 200; i++ {
			s := next()
			w.Push(s)
			twin.Push(s)
			if !sameBits(w.Window().Data, twin.Window().Data) {
				t.Fatalf("%s: push %d after the refusal differs from the untouched twin", name, i)
			}
		}
		if err := w.SetState(good); err != nil {
			t.Fatalf("%s: valid state rejected after the refusal: %v", name, err)
		}
	}
}

// TestWindowHeaderStable: Window returns the same Windower-owned header on
// every call while its contents track the pushes, and a WindowInto copy is
// unaffected by later pushes.
func TestWindowHeaderStable(t *testing.T) {
	const rows, channels = 6, 3
	w := mustWindower(t, channels, rows, dataset.Stats{})
	ref := newRefWindower(t, channels, rows, dataset.Stats{})
	hdr := w.Window()
	next := sampleStream(5, channels)
	var held *tensor.Matrix
	var heldBits []float64
	for i := 0; i < 4*rows; i++ {
		s := next()
		w.Push(s)
		ref.Push(s)
		if w.Window() != hdr {
			t.Fatalf("push %d: Window returned a different header", i)
		}
		if hdr.Rows != rows || hdr.Cols != channels || !sameBits(hdr.Data, ref.window.Data) {
			t.Fatalf("push %d: held header does not show the current window", i)
		}
		if held != nil && !sameBits(held.Data, heldBits) {
			t.Fatalf("push %d: WindowInto copy changed under later pushes", i)
		}
		if i == rows+2 {
			held = w.WindowInto(nil)
			heldBits = append([]float64(nil), held.Data...)
			if again := w.WindowInto(held); again != held {
				t.Fatal("WindowInto reallocated a correctly shaped dst")
			}
		}
	}
}

func TestWindowerAllocs(t *testing.T) {
	w := mustWindower(t, 16, 100, testNorms(16)["norm"])
	s := sampleStream(6, 16)()
	if n := testing.AllocsPerRun(500, func() { w.Push(s) }); n != 0 {
		t.Fatalf("Push allocates %v times per call, want 0", n)
	}
	// Window copy, per-channel slice headers, one slab of filter state.
	if n := testing.AllocsPerRun(100, func() { _ = w.State() }); n > 3 {
		t.Fatalf("State allocates %v times per call, want at most 3", n)
	}
}

// fuzzWindowerState builds an arbitrary WindowerState: shape[0] is the window
// length, every further shape byte one channel's filter-state length; values
// are drawn from data eight bytes at a time.
func fuzzWindowerState(filled int64, shape, data []byte) WindowerState {
	draw := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			if len(data) >= 8 {
				out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
			} else {
				out[i] = float64(i)
			}
		}
		return out
	}
	st := WindowerState{Filled: int(filled)}
	if len(shape) > 0 {
		st.Window = draw(int(shape[0]))
		for _, n := range shape[1:] {
			st.Filter = append(st.Filter, draw(int(n)))
		}
	}
	return st
}

// FuzzWindowerSetState: no WindowerState panics SetState; an accepted one
// comes back from State exactly, a refused one leaves State as it was. The
// receiver is 4 rows × 3 channels (12 window values, 20 filter values per
// channel). Seed corpus: testdata/fuzz/FuzzWindowerSetState.
func FuzzWindowerSetState(f *testing.F) {
	f.Fuzz(func(t *testing.T, filled int64, shape, data []byte) {
		st := fuzzWindowerState(filled, shape, data)
		w := mustWindower(t, 3, 4, dataset.Stats{})
		for i := 0; i < 6; i++ {
			w.Push([]float64{float64(i), -1, 0.5})
		}
		before := w.State()
		if err := w.SetState(st); err != nil {
			if !sameState(w.State(), before) {
				t.Fatalf("refused state (%v) changed the windower", err)
			}
			return
		}
		if !sameState(w.State(), st) {
			t.Fatal("accepted state does not come back from State")
		}
		w.Push([]float64{1, 2, 3}) // and the restored windower still runs
	})
}

func BenchmarkWindowerPush(b *testing.B) {
	const channels, rows = 16, 100
	norm := testNorms(channels)["norm"]
	next := sampleStream(9, channels)
	samples := make([][]float64, 64)
	for i := range samples {
		samples[i] = append([]float64(nil), next()...)
	}
	// hot: one Windower, everything it touches in L1.
	b.Run("hot", func(b *testing.B) {
		w := mustWindower(b, channels, rows, norm)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Push(samples[i%len(samples)])
		}
	})
	// shard: what a serving shard does each tick — 50 sessions in turn, the
	// ~9 samples a 125 Hz stream delivers per 15 Hz tick pushed into each.
	b.Run("shard", func(b *testing.B) {
		ws := make([]*Windower, 50)
		for i := range ws {
			ws[i] = mustWindower(b, channels, rows, norm)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws[i/9%len(ws)].Push(samples[i%len(samples)])
		}
	})
}

// TestDecideAllocs: the rest of a session's per-tick signal path, the
// readiness check, the window header and the debounce vote, allocates nothing.
func TestDecideAllocs(t *testing.T) {
	w := mustWindower(t, 16, 100, testNorms(16)["norm"])
	next := sampleStream(7, 16)
	for !w.Ready() {
		w.Push(next())
	}
	var d Debouncer
	var a eeg.Action
	for range SmoothingWindow { // fill the history, so every measured call votes
		d.Observe(a)
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"Windower.Ready", func() { readySink = w.Ready() }},
		{"Windower.Window", func() { windowSink = w.Window() }},
		{"Debouncer.Observe", func() { a = (a + 1) % eeg.NumActions; readySink = d.Observe(a) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(500, tc.fn); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", tc.name, n)
		}
	}
}

var (
	readySink  bool
	windowSink *tensor.Matrix
)
