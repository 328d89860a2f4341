package rf

import (
	"math/rand"
	"testing"

	"cognitivearm/internal/tensor"
)

// synthSet builds a separable 3-class problem the forest learns cleanly.
func synthSet(rng *rand.Rand, n, d int) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		cls := rng.Intn(3)
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() + float64(cls)*2.5
		}
		X[i] = row
		y[i] = cls
	}
	return X, y
}

func TestQForestAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	X, y := synthSet(rng, 400, 10)
	f, err := Fit(X, y, 3, Config{Trees: 30, MaxDepth: 8, MinSamplesSplit: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := f.Quantize()
	if q.NodeCount() != f.NodeCount() {
		t.Fatalf("node count %d != %d", q.NodeCount(), f.NodeCount())
	}

	Xt, _ := synthSet(rng, 300, 10)
	ws := tensor.NewWorkspace()
	want := f.PredictBatchWS(ws, Xt, nil)
	wantCopy := append([]int(nil), want...)
	ws.Reset()
	got := q.PredictBatchWS(ws, Xt, nil)
	agree := 0
	for i := range wantCopy {
		if got[i] == wantCopy[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(wantCopy)); frac < 0.98 {
		t.Fatalf("int16 forest agreement %.3f < 0.98", frac)
	}

	// A warm workspace (reused after Reset) matches a fresh one exactly.
	fresh := q.PredictBatchWS(tensor.NewWorkspace(), Xt, nil)
	for i := range got {
		if got[i] != fresh[i] {
			t.Fatalf("sample %d: warm ws %d != fresh %d", i, got[i], fresh[i])
		}
	}
}

func TestQForestProbsNormalised(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	X, y := synthSet(rng, 200, 6)
	f, err := Fit(X, y, 3, Config{Trees: 10, MaxDepth: 6, MinSamplesSplit: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := f.Quantize()
	probs := q.ProbsBatchWS(tensor.NewWorkspace(), X[:20])
	for i, p := range probs {
		var sum float64
		for _, v := range p {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("sample %d: probs sum %v", i, sum)
		}
	}
}

// TestQForestOutOfRangeValues feeds values far outside the threshold grid:
// clamping must keep comparisons ordered (no wraparound misroutes).
func TestQForestOutOfRangeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	X, y := synthSet(rng, 200, 4)
	f, err := Fit(X, y, 3, Config{Trees: 10, MaxDepth: 6, MinSamplesSplit: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := f.Quantize()
	extreme := [][]float64{
		{1e9, 1e9, 1e9, 1e9},
		{-1e9, -1e9, -1e9, -1e9},
	}
	ws := tensor.NewWorkspace()
	exact := f.PredictBatchWS(ws, extreme, nil)
	quant := q.PredictBatchWS(ws, extreme, nil)
	for i := range exact {
		if exact[i] != quant[i] {
			t.Fatalf("extreme sample %d: exact %d != quantized %d", i, exact[i], quant[i])
		}
	}
}
