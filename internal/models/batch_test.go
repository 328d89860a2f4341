package models

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cognitivearm/internal/eeg"
	"cognitivearm/internal/tensor"
)

// batchTestSpecs returns one small spec per NN family so the equivalence
// test exercises the conv, recurrent and attention batch kernels end to end,
// plus the serving CNN's layer shape on a 101-sample window: its conv emits
// 49 steps per window, so the GEMM's 4-row tiles straddle windows.
func batchTestSpecs() []namedSpec {
	return []namedSpec{
		{"cnn", Spec{Family: FamilyCNN, WindowSize: 64, Optimizer: "adam", LR: 1e-3, Dropout: 0.2,
			ConvLayers: 2, Filters: 8, Kernel: 5, Stride: 2, Pool: "max"}},
		{"cnn-w101", Spec{Family: FamilyCNN, WindowSize: 101, Optimizer: "adam", LR: 1e-3, Dropout: 0.2,
			ConvLayers: 1, Filters: 32, Kernel: 5, Stride: 2, Pool: "none"}},
		{"lstm", Spec{Family: FamilyLSTM, WindowSize: 32, Optimizer: "adam", LR: 1e-3, Dropout: 0.3,
			LSTMLayers: 2, Hidden: 12}},
		{"transformer", Spec{Family: FamilyTransformer, WindowSize: 24, Optimizer: "adamw", LR: 1e-3, Dropout: 0.1,
			TFLayers: 2, Heads: 2, DModel: 16, FFDim: 32}},
	}
}

type namedSpec struct {
	name string
	spec Spec
}

func randBatch(b, rows int, rng *tensor.RNG) []*tensor.Matrix {
	xs := make([]*tensor.Matrix, b)
	for i := range xs {
		x := tensor.New(rows, eeg.NumChannels)
		for j := range x.Data {
			x.Data[j] = rng.NormFloat64()
		}
		xs[i] = x
	}
	return xs
}

// batchSizes leave every row tail a 4-row tile can see (B·T mod 4) and reach
// the serving batch, which is past the kernel pool's crossover for the CNNs.
var batchSizes = []int{1, 3, 4, 5, 50}

// batchWorkspaces are the three ways a caller runs a batch: a fresh
// workspace per batch, whose buffers are all newly zeroed, a warm one reused
// (with Reset) across every batch size as a serving shard does across ticks —
// stale-scratch leaks between cycles would surface as mismatches — and one
// with a kernel pool attached.
func batchWorkspaces(t *testing.T) []namedWorkspace {
	pool := tensor.NewPool(3)
	t.Cleanup(pool.Close)
	warm, pooled := tensor.NewWorkspace(), tensor.NewWorkspace()
	pooled.SetPool(pool)
	reuse := func(ws *tensor.Workspace) func() *tensor.Workspace {
		return func() *tensor.Workspace { ws.Reset(); return ws }
	}
	return []namedWorkspace{{"fresh", tensor.NewWorkspace}, {"warm", reuse(warm)}, {"kernel-pool", reuse(pooled)}}
}

type namedWorkspace struct {
	path string
	next func() *tensor.Workspace // the workspace for the next batch
}

// TestNNPredictBatchMatchesPredict is the serving-path equivalence guarantee:
// for every NN family, the fused batched forward returns bitwise-identical
// logits — compared by bit pattern, so not even a zero's sign may differ —
// and therefore identical labels to per-window Predict.
func TestNNPredictBatchMatchesPredict(t *testing.T) {
	rng := tensor.NewRNG(17)
	for _, tc := range batchTestSpecs() {
		spec := tc.spec
		t.Run(tc.name, func(t *testing.T) {
			net, err := BuildNet(spec, 7)
			if err != nil {
				t.Fatal(err)
			}
			clf := &NNClassifier{Net: net, Spec: spec}
			labelBuf := make([]int, 0, 64)
			for _, w := range batchWorkspaces(t) {
				path := w.path
				for _, B := range batchSizes {
					xs := randBatch(B, spec.WindowSize, rng)
					ws := w.next()
					labels := clf.PredictBatchWS(ws, xs, labelBuf)
					outs := net.ForwardBatch(ws, xs, false)
					for i, x := range xs {
						if want := clf.Predict(x); labels[i] != want {
							t.Fatalf("%s B=%d window %d: batched label %d != sequential %d", path, B, i, labels[i], want)
						}
						want := net.Logits(x)
						got := outs[i].Row(0)
						for j := range want {
							if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
								t.Fatalf("%s B=%d window %d logit %d: batched %v != sequential %v (must be bitwise identical)",
									path, B, i, j, got[j], want[j])
							}
						}
					}
				}
			}
		})
	}
}

// TestRFPredictBatchWSMatchesPredict completes the four families: the forest
// has no logits, so its batched labels are compared, over the same batch
// sizes and workspaces.
func TestRFPredictBatchWSMatchesPredict(t *testing.T) {
	train, val := smallData(t, 50)
	clf, _, err := Train(Spec{Family: FamilyRF, WindowSize: 50, Trees: 15, MaxDepth: 8}, train, val, TrainOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range batchWorkspaces(t) {
		path := w.path
		for _, B := range batchSizes {
			xs := make([]*tensor.Matrix, B)
			for i := range xs {
				xs[i] = val[i%len(val)].Data
			}
			for i, got := range PredictBatchWS(clf, w.next(), xs, nil) {
				if want := clf.Predict(xs[i]); got != want {
					t.Fatalf("%s B=%d window %d: batched label %d != sequential %d", path, B, i, got, want)
				}
			}
		}
	}
}

// TestNNPredictBatchMixedShapes: a shard's batch always has one shape, so a
// batch mixing window lengths (two models' sessions misrouted into one call)
// is a bug, and must panic naming both shapes rather than be classified.
func TestNNPredictBatchMixedShapes(t *testing.T) {
	rng := tensor.NewRNG(23)
	spec := Spec{Family: FamilyLSTM, WindowSize: 32, Optimizer: "adam", LR: 1e-3,
		LSTMLayers: 1, Hidden: 8}
	net, err := BuildNet(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	clf := &NNClassifier{Net: net, Spec: spec}
	xs := append(randBatch(2, 32, rng), randBatch(2, 40, rng)...)
	defer func() {
		msg := fmt.Sprint(recover())
		want32, want40 := fmt.Sprintf("32x%d", eeg.NumChannels), fmt.Sprintf("40x%d", eeg.NumChannels)
		if !strings.Contains(msg, want32) || !strings.Contains(msg, want40) {
			t.Fatalf("mixed-shape batch must panic naming %s and %s, got %q", want32, want40, msg)
		}
	}()
	clf.PredictBatchWS(tensor.NewWorkspace(), xs, nil)
}
