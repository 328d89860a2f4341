package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cognitivearm/internal/tensor"
)

// randWindows builds B identical-shape random inputs.
func randWindows(b, rows, cols int, rng *tensor.RNG) []*tensor.Matrix {
	xs := make([]*tensor.Matrix, b)
	for i := range xs {
		x := tensor.New(rows, cols)
		for j := range x.Data {
			x.Data[j] = rng.NormFloat64()
		}
		xs[i] = x
	}
	return xs
}

// assertBatchMatchesForward demands that l.ForwardBatch equals B independent
// Forward(x, false) calls bitwise — on a fresh workspace, whose buffers are
// all newly zeroed, and on one that has already served (and Reset after) a
// previous batch, so stale scratch contents leaking into results would be
// caught.
func assertBatchMatchesForward(t *testing.T, name string, l Layer, xs []*tensor.Matrix) {
	t.Helper()
	warm := tensor.NewWorkspace()
	l.ForwardBatch(warm, xs, false) // warm the buckets with a prior cycle
	warm.Reset()
	for _, tc := range []struct {
		path string
		ws   *tensor.Workspace
	}{{"fresh", tensor.NewWorkspace()}, {"workspace-reused", warm}} {
		got := l.ForwardBatch(tc.ws, xs, false)
		if len(got) != len(xs) {
			t.Fatalf("%s[%s]: batch returned %d outputs for %d windows", name, tc.path, len(got), len(xs))
		}
		for i, x := range xs {
			want := l.Forward(x, false)
			g := got[i]
			if g.Rows != want.Rows || g.Cols != want.Cols {
				t.Fatalf("%s[%s] window %d: shape %dx%d, want %dx%d", name, tc.path, i, g.Rows, g.Cols, want.Rows, want.Cols)
			}
			assertSameBits(t, fmt.Sprintf("%s[%s] window %d", name, tc.path, i), g.Data, want.Data)
		}
	}
}

// assertSameBits compares by bit pattern, so a −0 where the sequential path
// has +0 fails: bitwise identical means identical bits.
func assertSameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s element %d: batched %v (%#x) != sequential %v (%#x) (must be bitwise identical)",
				label, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// TestForwardBatchMatchesForwardPerLayer covers every layer family's fused
// kernel against the per-window reference, including the structural wrappers.
func TestForwardBatchMatchesForwardPerLayer(t *testing.T) {
	rng := tensor.NewRNG(41)
	const B, T, C = 7, 20, 6
	cases := []struct {
		name       string
		layer      Layer
		rows, cols int
	}{
		{"Dense", NewDense(C, 9, rng), T, C},
		{"ReLU", NewReLU(), T, C},
		{"Dropout", NewDropout(0.4, rng.Fork()), T, C},
		{"Flatten", NewFlatten(), T, C},
		{"MeanPool", NewMeanPool(), T, C},
		{"Conv1D", NewConv1D(C, 8, 5, 2, rng), T, C},
		{"MaxPool1D", NewPool1D(MaxPoolKind, 3), T, C},
		{"AvgPool1D", NewPool1D(AvgPoolKind, 3), T, C},
		{"Pool1DDegenerate", NewPool1D(MaxPoolKind, T+5), T, C},
		{"LSTM", NewLSTM(C, 10, rng), T, C},
		{"LastStep", NewLastStep(), T, C},
		{"LayerNorm", NewLayerNorm(C), T, C},
		{"PosEnc", NewPositionalEncoding(C), T, C},
		{"MHA", NewMultiHeadAttention(8, 2, rng), T, 8},
		{"Residual", NewResidual(NewDense(C, C, rng)), T, C},
		{"Sequential", NewSequential(NewDense(C, 12, rng), NewReLU(), NewDense(12, C, rng)), T, C},
		{"TransformerBlock", TransformerBlock(8, 2, 16, 0.1, rng), T, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertBatchMatchesForward(t, tc.name, tc.layer, randWindows(B, tc.rows, tc.cols, rng))
		})
	}
}

// TestNetworkForwardBatchMatchesPredict runs a full stack end to end.
func TestNetworkForwardBatchMatchesPredict(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := NewNetwork(
		NewConv1D(4, 6, 3, 1, rng),
		NewReLU(),
		NewMeanPool(),
		NewDropout(0.3, rng.Fork()),
		NewDense(6, 3, rng),
	)
	xs := randWindows(9, 16, 4, rng)
	outs := net.ForwardBatch(tensor.NewWorkspace(), xs, false)
	labels := net.PredictBatch(tensor.NewWorkspace(), xs, nil)
	for i, x := range xs {
		if want := net.Predict(x); labels[i] != want {
			t.Fatalf("window %d: batched label %d != sequential %d", i, labels[i], want)
		}
		assertSameBits(t, fmt.Sprintf("window %d logits", i), outs[i].Data, net.Forward(x, false).Data)
	}
}

// TestForwardBatchQuadsStraddleWindows runs the serving CNN's shape on a
// 101-sample window, where the conv emits 49 steps per window: the GEMM's
// 4-row tiles then take rows from two windows at once, every batch size
// leaves a different row tail, and B=50 is large enough for a kernel pool to
// split. Logits must equal per-window Forward bit for bit on a fresh
// workspace, a warm one, and with a pool attached — inputs include exact zeros,
// which Forward's MatMul skips and the GEMM does not.
func TestForwardBatchQuadsStraddleWindows(t *testing.T) {
	rng := tensor.NewRNG(6)
	net := NewNetwork(
		NewConv1D(16, 32, 5, 2, rng),
		NewReLU(),
		NewMeanPool(),
		NewDropout(0.2, rng.Fork()),
		NewDense(32, 4, rng),
	)
	pool := tensor.NewPool(3)
	defer pool.Close()
	pooled := tensor.NewWorkspace()
	pooled.SetPool(pool)
	warm := tensor.NewWorkspace()
	for _, B := range []int{1, 3, 4, 5, 50} {
		xs := randWindows(B, 101, 16, rng)
		for _, x := range xs {
			for j := 0; j < len(x.Data); j += 7 {
				x.Data[j] = 0
			}
		}
		for _, tc := range []struct {
			path string
			ws   *tensor.Workspace
		}{{"fresh", tensor.NewWorkspace()}, {"warm", warm}, {"kernel-pool", pooled}} {
			tc.ws.Reset()
			outs := net.ForwardBatch(tc.ws, xs, false)
			for i, x := range xs {
				assertSameBits(t, fmt.Sprintf("B=%d[%s] window %d logits", B, tc.path, i), outs[i].Data, net.Forward(x, false).Data)
			}
		}
	}
}

// TestForwardBatchTrainPanics pins the inference-only contract.
func TestForwardBatchTrainPanics(t *testing.T) {
	rng := tensor.NewRNG(2)
	net := NewNetwork(NewDense(3, 2, rng))
	defer func() {
		if recover() == nil {
			t.Fatal("ForwardBatch(train=true) must panic")
		}
	}()
	net.ForwardBatch(tensor.NewWorkspace(), randWindows(2, 1, 3, rng), true)
}

// TestForwardBatchShapeMismatchPanics pins the same-shape requirement.
func TestForwardBatchShapeMismatchPanics(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := NewNetwork(NewDense(3, 2, rng))
	xs := []*tensor.Matrix{tensor.New(4, 3), tensor.New(5, 3)}
	defer func() {
		if recover() == nil {
			t.Fatal("mixed window shapes must panic")
		}
	}()
	net.ForwardBatch(tensor.NewWorkspace(), xs, false)
}

// TestForwardBatchLayerShapeMismatchPanics: the GEMM-backed layers read every
// window in place through a view sized from the first, so a direct
// ForwardBatch call (which bypasses Network.ForwardBatch's check) must refuse
// a window of another shape — longer ones used to be silently truncated — and
// name both shapes.
func TestForwardBatchLayerShapeMismatchPanics(t *testing.T) {
	rng := tensor.NewRNG(7)
	layers := []struct {
		name  string
		layer Layer
	}{
		{"Conv1D", NewConv1D(8, 4, 3, 1, rng)},
		{"Dense", NewDense(8, 4, rng)},
		{"MHA", NewMultiHeadAttention(8, 2, rng)},
	}
	for _, l := range layers {
		for _, rows := range []int{9, 11} { // shorter and longer than the first window
			t.Run(fmt.Sprintf("%s/%d-rows", l.name, rows), func(t *testing.T) {
				xs := []*tensor.Matrix{tensor.New(10, 8), tensor.New(10, 8), tensor.New(rows, 8)}
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, "10x8") || !strings.Contains(msg, fmt.Sprintf("%dx8", rows)) {
						t.Fatalf("mixed window shapes must panic naming both shapes, got %q", msg)
					}
				}()
				l.layer.ForwardBatch(tensor.NewWorkspace(), xs, false)
			})
		}
	}
}

// TestForwardBatchEmpty: an empty batch is a no-op, not a panic.
func TestForwardBatchEmpty(t *testing.T) {
	rng := tensor.NewRNG(4)
	net := NewNetwork(NewDense(3, 2, rng))
	if out := net.ForwardBatch(tensor.NewWorkspace(), nil, false); len(out) != 0 {
		t.Fatalf("empty batch returned %d outputs", len(out))
	}
	if out := net.PredictBatch(tensor.NewWorkspace(), nil, nil); len(out) != 0 {
		t.Fatalf("empty PredictBatch returned %d labels", len(out))
	}
}
