package models

import (
	"bytes"
	"sync"
	"testing"

	"cognitivearm/internal/tensor"
)

// TestConcurrentSharedNNInference is the serving-hub contract test: one NN
// classifier deserialised from the serialize.go format is shared read-only
// by many goroutines mixing Predict, Probs and PredictBatchWS. Run under
// `go test -race`, this fails if any layer's inference path writes receiver
// state (the original Forward implementations cached activations
// unconditionally, so sharing a model across sessions raced).
func TestConcurrentSharedNNInference(t *testing.T) {
	train, val := smallData(t, 50)
	// CNN + transformer cover every inference-path layer family: conv,
	// pooling, relu, dropout, dense, attention, layernorm, meanpool.
	specs := []Spec{
		{Family: FamilyCNN, WindowSize: 50, Optimizer: "adam", LR: 2e-3,
			Dropout: 0.1, ConvLayers: 1, Filters: 8, Kernel: 5, Stride: 2, Pool: "max"},
		{Family: FamilyTransformer, WindowSize: 50, Optimizer: "adamw", LR: 1e-3,
			Dropout: 0.1, TFLayers: 1, Heads: 2, DModel: 8, FFDim: 16},
	}
	for _, spec := range specs {
		trained, _, err := Train(spec, train, val, TrainOptions{Epochs: 1, BatchSize: 32, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveNN(&buf, trained.(*NNClassifier)); err != nil {
			t.Fatal(err)
		}
		shared, err := LoadNN(&buf)
		if err != nil {
			t.Fatal(err)
		}

		windows := make([]*tensor.Matrix, 0, 8)
		for _, w := range val[:8] {
			windows = append(windows, w.Data)
		}
		want := make([]int, len(windows))
		for i, x := range windows {
			want[i] = shared.Predict(x)
		}
		wantProbs := shared.Probs(windows[0])

		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for rep := 0; rep < 5; rep++ {
					switch g % 3 {
					case 0:
						for i, x := range windows {
							if got := shared.Predict(x); got != want[i] {
								t.Errorf("%s: concurrent Predict[%d] = %d, want %d", spec.ID(), i, got, want[i])
								return
							}
						}
					case 1:
						p := shared.Probs(windows[0])
						for i := range p {
							if p[i] != wantProbs[i] {
								t.Errorf("%s: concurrent Probs diverged", spec.ID())
								return
							}
						}
					case 2:
						got := PredictBatchWS(shared, tensor.NewWorkspace(), windows, nil)
						for i := range got {
							if got[i] != want[i] {
								t.Errorf("%s: concurrent PredictBatchWS[%d] = %d, want %d", spec.ID(), i, got[i], want[i])
								return
							}
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestPredictBatchMatchesPredict pins the tree-major forest batch path to
// the sample-major reference, and exercises it concurrently.
func TestPredictBatchMatchesPredict(t *testing.T) {
	train, val := smallData(t, 50)
	spec := Spec{Family: FamilyRF, WindowSize: 50, Trees: 15, MaxDepth: 8}
	clf, _, err := Train(spec, train, val, TrainOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	windows := make([]*tensor.Matrix, 0, len(val))
	for _, w := range val {
		windows = append(windows, w.Data)
	}
	want := make([]int, len(windows))
	for i, x := range windows {
		want[i] = clf.Predict(x)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := PredictBatchWS(clf, tensor.NewWorkspace(), windows, nil)
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("PredictBatchWS[%d] = %d, want %d", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()

	// The generic helper must also serve classifiers without a batch path.
	plain := plainClassifier{Classifier: clf}
	got := PredictBatchWS(plain, tensor.NewWorkspace(), windows, nil)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fallback PredictBatchWS[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// plainClassifier hides the BatchPredictorWS implementation to force the
// helper's per-window fallback.
type plainClassifier struct{ Classifier }
