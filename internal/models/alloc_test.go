package models

import (
	"math/rand"
	"testing"

	"cognitivearm/internal/tensor"
)

// TestPredictBatchWSAllocFree pins the serving entry point at zero steady-state
// allocations for every classifier kind with a batched form: the forest, the
// CNN, and both quantized twins (the int16 forest and the int8 network),
// each through PredictBatchWS with a warm workspace and a reused label buffer.
func TestPredictBatchWSAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	train := quantWindows(rng, 90, 30)
	batch := calibFrom(train[:24])
	forest, _, err := Train(Spec{Family: FamilyRF, WindowSize: 30, Trees: 9, MaxDepth: 6}, train, nil, TrainOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cnnSpec := Spec{Family: FamilyCNN, WindowSize: 30, Optimizer: "adam", LR: 1e-3,
		ConvLayers: 1, Filters: 8, Kernel: 5, Stride: 2, Pool: "none"}
	net, err := BuildNet(cnnSpec, 3)
	if err != nil {
		t.Fatal(err)
	}
	clfs := map[string]Classifier{"rf": forest, "cnn": &NNClassifier{Net: net, Spec: cnnSpec}}
	for _, name := range []string{"rf", "cnn"} {
		q, err := Quantize(clfs[name], QuantOptions{MinAgreement: 0.5, Calibration: batch})
		if err != nil {
			t.Fatal(err)
		}
		clfs[name+"-quant"] = q
	}
	for name, clf := range clfs {
		t.Run(name, func(t *testing.T) {
			ws := tensor.NewWorkspace()
			labels := make([]int, 0, len(batch))
			cycle := func() {
				ws.Reset()
				labels = PredictBatchWS(clf, ws, batch, labels[:0])
			}
			cycle()
			if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
				t.Fatalf("steady-state PredictBatchWS allocates %.1f times per call, want 0", avg)
			}
		})
	}
}
