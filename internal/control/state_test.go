package control

import (
	"reflect"
	"testing"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/tensor"
)

// TestWindowerStateResumesBitwise: a fresh Windower restored from a
// mid-stream snapshot must produce exactly the windows the original would
// have — including IIR filter transients, the property checkpoint/restore
// depends on.
func TestWindowerStateResumesBitwise(t *testing.T) {
	norm := dataset.Stats{Mean: []float64{0.1, -0.2, 0.3}, Std: []float64{1, 2, 0.5}}
	mk := func() *Windower {
		w, err := NewWindower(125, 3, 10, norm)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	rng := tensor.NewRNG(77)
	samples := make([][]float64, 40)
	for i := range samples {
		samples[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}

	ref := mk()
	for _, s := range samples {
		ref.Push(s)
	}

	split := mk()
	for _, s := range samples[:17] { // mid-window, filters warm
		split.Push(s)
	}
	resumed := mk()
	if err := resumed.SetState(split.State()); err != nil {
		t.Fatal(err)
	}
	for _, s := range samples[17:] {
		resumed.Push(s)
	}
	if !reflect.DeepEqual(ref.Window().Data, resumed.Window().Data) {
		t.Fatal("resumed windower diverged from the uninterrupted one")
	}
}

func TestDebouncerStateRoundTrip(t *testing.T) {
	var d Debouncer
	labels := []eeg.Action{eeg.Left, eeg.Left, eeg.Right, eeg.Left, eeg.Left, eeg.Left, eeg.Left}
	for _, a := range labels {
		d.Observe(a)
	}
	var r Debouncer
	if err := r.SetState(d.State()); err != nil {
		t.Fatal(err)
	}
	// Both must agree on every subsequent observation.
	seq := []eeg.Action{eeg.Left, eeg.Right, eeg.Right, eeg.Right, eeg.Right, eeg.Right, eeg.Idle}
	for i, a := range seq {
		want, got := d.Observe(a), r.Observe(a)
		if got != want {
			t.Fatalf("restored debouncer diverged at observation %d", i)
		}
	}
	if err := r.SetState(DebouncerState{Recent: []int{1}, Head: 0, N: 0}); err == nil {
		t.Fatal("short recent ring accepted")
	}
	if err := r.SetState(DebouncerState{Recent: make([]int, SmoothingWindow), Head: SmoothingWindow, N: 0}); err == nil {
		t.Fatal("out-of-range head accepted")
	}
}
