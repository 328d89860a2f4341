package compress

import (
	"math"
	"testing"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/models"
	"cognitivearm/internal/tensor"
)

// trainedCNN returns a small trained CNN plus held-out windows.
func trainedCNN(t *testing.T) (*models.NNClassifier, []dataset.Window) {
	t.Helper()
	bySubject, _, err := dataset.Build([]int{0, 1}, 1, dataset.ShortProtocol(40), 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	var all []dataset.Window
	// Pool in fixed subject order: ranging over the map makes the train/val
	// split depend on iteration order, which flakes the accuracy thresholds.
	for _, id := range []int{0, 1} {
		all = append(all, bySubject[id]...)
	}
	dataset.Shuffle(all, tensor.NewRNG(3))
	cut := len(all) * 8 / 10
	train, val := all[:cut], all[cut:]
	s := models.Spec{Family: models.FamilyCNN, WindowSize: 100, Optimizer: "adam", LR: 3e-3,
		Dropout: 0.1, ConvLayers: 1, Filters: 16, Kernel: 5, Stride: 2, Pool: "none"}
	clf, _, err := models.Train(s, train, val, models.TrainOptions{Epochs: 10, BatchSize: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return clf.(*models.NNClassifier), val
}

func TestCloneIndependence(t *testing.T) {
	clf, val := trainedCNN(t)
	clone, err := CloneNN(clf)
	if err != nil {
		t.Fatal(err)
	}
	// Same predictions.
	for _, w := range val[:5] {
		if clf.Predict(w.Data) != clone.Predict(w.Data) {
			t.Fatal("clone should predict identically")
		}
	}
	// Mutating the clone must not touch the original.
	orig := clf.Net.Params()[0].W.Data[0]
	clone.Net.Params()[0].W.Data[0] = 999
	if clf.Net.Params()[0].W.Data[0] != orig {
		t.Fatal("clone shares storage with original")
	}
}

func TestPruneSparsityLevels(t *testing.T) {
	clf, _ := trainedCNN(t)
	for _, ratio := range PaperPruneLevels() {
		pruned, rep, err := Prune(clf, ratio)
		if err != nil {
			t.Fatal(err)
		}
		got := Sparsity(pruned)
		if math.Abs(got-ratio) > 0.05 {
			t.Fatalf("ratio %v: achieved sparsity %v", ratio, got)
		}
		if ratio > 0 && rep.WeightsZeroed == 0 {
			t.Fatalf("ratio %v zeroed nothing", ratio)
		}
	}
}

func TestPruneMonotoneSparsity(t *testing.T) {
	clf, _ := trainedCNN(t)
	prev := -1.0
	for _, ratio := range PaperPruneLevels() {
		pruned, _, _ := Prune(clf, ratio)
		s := Sparsity(pruned)
		if s < prev {
			t.Fatalf("sparsity not monotone: %v after %v", s, prev)
		}
		prev = s
	}
}

func TestModeratePruningPreservesAccuracy(t *testing.T) {
	clf, val := trainedCNN(t)
	base := models.Accuracy(clf, val)
	pruned, _, err := Prune(clf, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	acc := models.Accuracy(pruned, val)
	if acc < base-0.15 {
		t.Fatalf("50%% pruning dropped accuracy %v → %v", base, acc)
	}
}

func TestExtremePruningHurtsMoreThanModerate(t *testing.T) {
	clf, val := trainedCNN(t)
	p50, _, _ := Prune(clf, 0.5)
	p90, _, _ := Prune(clf, 0.9)
	a50 := models.Accuracy(p50, val)
	a90 := models.Accuracy(p90, val)
	if a90 > a50+0.05 {
		t.Fatalf("90%% pruning (%v) should not beat 50%% (%v)", a90, a50)
	}
}

func TestPruneBadRatio(t *testing.T) {
	clf, _ := trainedCNN(t)
	for _, r := range []float64{-0.1, 1.0, 1.5} {
		if _, _, err := Prune(clf, r); err == nil {
			t.Fatalf("ratio %v should error", r)
		}
	}
}

func TestPruneDoesNotTouchOriginal(t *testing.T) {
	clf, _ := trainedCNN(t)
	before := Sparsity(clf)
	if _, _, err := Prune(clf, 0.9); err != nil {
		t.Fatal(err)
	}
	if after := Sparsity(clf); after != before {
		t.Fatal("pruning mutated the original model")
	}
}

func TestQuantizePerTensorMild(t *testing.T) {
	clf, val := trainedCNN(t)
	base := models.Accuracy(clf, val)
	q, rep, err := Quantize(clf, PerTensor)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bits != 8 {
		t.Fatal("bits should be 8")
	}
	acc := models.Accuracy(q, val)
	if acc < base-0.1 {
		t.Fatalf("per-tensor int8 should be mild: %v → %v", base, acc)
	}
	// Weights must lie on the int8 grid per tensor.
	for _, p := range q.Net.Params() {
		maxAbs := 0.0
		for _, w := range p.W.Data {
			if a := math.Abs(w); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			continue
		}
		scale := maxAbs / 127
		for _, w := range p.W.Data {
			q := w / scale
			if math.Abs(q-math.Round(q)) > 1e-6 {
				t.Fatalf("weight %v not on int8 grid (scale %v)", w, scale)
			}
		}
	}
}

// TestQuantizeGlobalNaiveDegrades reproduces the qualitative Figure 12
// result: the naive edge-pipeline quantization severely reduces accuracy.
func TestQuantizeGlobalNaiveDegrades(t *testing.T) {
	clf, val := trainedCNN(t)
	base := models.Accuracy(clf, val)
	if base < 0.6 {
		t.Skipf("baseline too weak (%v) for a meaningful comparison", base)
	}
	q, _, err := Quantize(clf, GlobalNaive)
	if err != nil {
		t.Fatal(err)
	}
	perTensor, _, _ := Quantize(clf, PerTensor)
	aNaive := models.Accuracy(q, val)
	aGood := models.Accuracy(perTensor, val)
	if aNaive > aGood {
		t.Fatalf("naive global quantization (%v) should not beat per-tensor (%v)", aNaive, aGood)
	}
}

func TestQuantizeUnknownMode(t *testing.T) {
	clf, _ := trainedCNN(t)
	if _, _, err := Quantize(clf, QuantMode(9)); err == nil {
		t.Fatal("unknown mode should error")
	}
}

func TestPaperPruneLevels(t *testing.T) {
	levels := PaperPruneLevels()
	want := []float64{0, 0.3, 0.5, 0.7, 0.9}
	if len(levels) != len(want) {
		t.Fatal("levels mismatch")
	}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("levels %v", levels)
		}
	}
}
