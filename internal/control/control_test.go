package control

import (
	"math"
	"testing"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/tensor"
)

// TestWindowerMalformedStats feeds a Windower Stats with a flat channel
// (zero std) and a Std slice shorter than Mean — the shapes a truncated gob
// or degenerate training set produces. Push must neither panic nor write
// non-finite values into the rolling window.
func TestWindowerMalformedStats(t *testing.T) {
	norm := dataset.Stats{
		Mean: []float64{0.5, -1.0, 2.0},
		Std:  []float64{0, 2}, // channel 0 flat, channel 2 missing entirely
	}
	w, err := NewWindower(eeg.SampleRate, 3, 4, norm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if !w.Push([]float64{1.5, -0.25, 3.0}) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if !w.Ready() {
		t.Fatal("window should be full")
	}
	for i, v := range w.Window().Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("window element %d is %v; malformed Stats must clamp, not poison", i, v)
		}
	}
}

// TestDebouncerRingMatchesReference drives the fixed-size ring and the
// original append+reslice formulation through the same random label stream
// and demands identical agreement decisions at every step.
func TestDebouncerRingMatchesReference(t *testing.T) {
	var d Debouncer
	var recent []eeg.Action
	ref := func(a eeg.Action) bool {
		recent = append(recent, a)
		if len(recent) > SmoothingWindow {
			recent = recent[1:]
		}
		if len(recent) < SmoothingWindow {
			return false
		}
		votes := 0
		for _, r := range recent {
			if r == a {
				votes++
			}
		}
		return votes >= SmoothingWindow-1
	}
	rng := tensor.NewRNG(9)
	for i := 0; i < 1000; i++ {
		a := eeg.Action(rng.Intn(eeg.NumActions))
		if got, want := d.Observe(a), ref(a); got != want {
			t.Fatalf("step %d: ring says %v, reference says %v", i, got, want)
		}
	}
}

// TestWindowInto pins the copy-out contract: the returned matrix equals the
// live window, survives subsequent pushes untouched, reuses a well-shaped
// dst, and replaces a mis-shaped one.
func TestWindowInto(t *testing.T) {
	w, err := NewWindower(125, 2, 4, dataset.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		w.Push([]float64{float64(i), float64(-i)})
	}
	snap := w.WindowInto(nil)
	if snap == w.Window() {
		t.Fatal("WindowInto must not return the live buffer")
	}
	live := append([]float64(nil), w.Window().Data...)
	for i := range live {
		if snap.Data[i] != live[i] {
			t.Fatalf("copy element %d: %v != live %v", i, snap.Data[i], live[i])
		}
	}
	w.Push([]float64{99, 99}) // live window rolls; the copy must not move
	if snap.Data[0] != live[0] || snap.Data[len(live)-1] != live[len(live)-1] {
		t.Fatal("WindowInto copy mutated by a later Push")
	}
	if again := w.WindowInto(snap); again != snap {
		t.Fatal("well-shaped dst must be reused, not reallocated")
	}
	for i, v := range w.Window().Data {
		if snap.Data[i] != v {
			t.Fatalf("reused dst element %d not refreshed: %v != live %v", i, snap.Data[i], v)
		}
	}
	if fixed := w.WindowInto(tensor.New(1, 1)); fixed.Rows != 4 || fixed.Cols != 2 {
		t.Fatal("mis-shaped dst must be replaced with a correctly shaped matrix")
	}
}
