package rf

import (
	"testing"

	"cognitivearm/internal/tensor"
)

// TestPredictBatchWSAllocFree pins the forest's batched serving path at zero
// steady-state allocations, and its labels on a warm workspace, whose
// recycled buffers hold the previous cycle's votes, equal to a fresh one's.
func TestPredictBatchWSAllocFree(t *testing.T) {
	rng := tensor.NewRNG(12)
	X := make([][]float64, 80)
	y := make([]int, len(X))
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y[i] = i % 3
	}
	f, err := Fit(X, y, 3, Config{Trees: 15, MaxDepth: 6, MinSamplesSplit: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	batch := X[:32]
	want := f.PredictBatchWS(tensor.NewWorkspace(), batch, nil)

	ws := tensor.NewWorkspace()
	labels := make([]int, 0, len(batch))
	cycle := func() {
		ws.Reset()
		labels = f.PredictBatchWS(ws, batch, labels[:0])
	}
	cycle()
	cycle()
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("sample %d: warm-workspace label %d != fresh %d", i, labels[i], want[i])
		}
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("steady-state PredictBatchWS allocates %.1f times per call, want 0", avg)
	}
}
