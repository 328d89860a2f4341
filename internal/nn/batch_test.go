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

// forward1 runs one window through l.ForwardBatch on a fresh workspace.
func forward1(l Layer, x *tensor.Matrix, train bool) *tensor.Matrix {
	return l.ForwardBatch(tensor.NewWorkspace(), []*tensor.Matrix{x}, train)[0]
}

// assertBatchMatchesForward demands that l.ForwardBatch over B windows
// equals B one-window calls bitwise — on a fresh workspace, whose buffers
// are all newly zeroed, and on one that has already served (and Reset after)
// a previous batch, so stale scratch contents leaking into results would be
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
			want := forward1(l, x, false)
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
			t.Fatalf("%s element %d: got %v (%#x), want %v (%#x) (must be bitwise identical)",
				label, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// layerCase is one layer of every family, with its input shape.
type layerCase struct {
	name       string
	layer      Layer
	rows, cols int
}

// layerCases builds every layer family, the structural wrappers included;
// dropout sets whether the Dropout layer and the transformer block drop.
func layerCases(rng *tensor.RNG, dropout bool) []layerCase {
	const T, C = 20, 6
	p, pBlock := 0.0, 0.0
	if dropout {
		p, pBlock = 0.4, 0.1
	}
	return []layerCase{
		{"Dense", NewDense(C, 9, rng), T, C},
		{"ReLU", NewReLU(), T, C},
		{"Dropout", NewDropout(p, rng.Fork()), T, C},
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
		{"TransformerBlock", TransformerBlock(8, 2, 16, pBlock, rng), T, 8},
	}
}

// TestForwardBatchMatchesForwardPerLayer holds every layer family's batched
// forward to one-window calls of itself, bit for bit: a window's output must
// not depend on its batch.
func TestForwardBatchMatchesForwardPerLayer(t *testing.T) {
	rng := tensor.NewRNG(41)
	const B = 7
	for _, tc := range layerCases(rng, true) {
		t.Run(tc.name, func(t *testing.T) {
			assertBatchMatchesForward(t, tc.name, tc.layer, randWindows(B, tc.rows, tc.cols, rng))
		})
	}
}

// TestForwardTrainMatchesInference: with dropout off, a train-mode forward
// (which saves what Backward reads) computes the inference output bit for
// bit, layer by layer and through an unfused Dense→ReLU network.
func TestForwardTrainMatchesInference(t *testing.T) {
	rng := tensor.NewRNG(42)
	for _, tc := range layerCases(rng, false) {
		t.Run(tc.name, func(t *testing.T) {
			x := randWindows(1, tc.rows, tc.cols, rng)[0]
			assertSameBits(t, tc.name, forward1(tc.layer, x, true).Data, forward1(tc.layer, x, false).Data)
		})
	}
	net := NewNetwork(NewConv1D(6, 9, 5, 2, rng), NewReLU(), NewMeanPool(), NewDense(9, 9, rng), NewReLU(), NewDense(9, 3, rng))
	x := randWindows(1, 20, 6, rng)[0]
	assertSameBits(t, "network", net.Forward(tensor.NewWorkspace(), x, true).Data, net.Forward(tensor.NewWorkspace(), x, false).Data)
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
		assertSameBits(t, fmt.Sprintf("window %d logits", i), outs[i].Data, net.Forward(tensor.NewWorkspace(), x, false).Data)
	}
}

// TestForwardBatchQuadsStraddleWindows runs the serving CNN's shape on a
// 101-sample window, where the conv emits 49 steps per window: the GEMM's
// 4-row tiles then take rows from two windows at once, every batch size
// leaves a different row tail, and B=50 is large enough for a kernel pool to
// split. Logits must equal one-window Forward bit for bit on a fresh
// workspace, a warm one, and with a pool attached — inputs include exact zeros.
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
				assertSameBits(t, fmt.Sprintf("B=%d[%s] window %d logits", B, tc.path, i), outs[i].Data, net.Forward(tensor.NewWorkspace(), x, false).Data)
			}
		}
	}
}

// TestForwardBatchTrainPanics pins train mode's one-window contract: a
// network and every layer refuse a train-mode batch of 0 or 2 windows.
func TestForwardBatchTrainPanics(t *testing.T) {
	rng := tensor.NewRNG(2)
	net := NewNetwork(NewDense(6, 2, rng))
	cases := append(layerCases(rng, true), layerCase{"Network", nil, 1, 6})
	for _, tc := range cases {
		forward := net.ForwardBatch
		if tc.layer != nil {
			forward = tc.layer.ForwardBatch
		}
		for _, b := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/B=%d", tc.name, b), func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatalf("ForwardBatch(train=true) on %d windows must panic", b)
					}
				}()
				forward(tensor.NewWorkspace(), randWindows(b, tc.rows, tc.cols, rng), true)
			})
		}
	}
}

// TestReLUNaNRule pins ReLU to the GEMM epilogue's rule, v <= 0 → +0, in
// both modes and fused: −0 and negative subnormals become +0, positive
// subnormals and NaN pass through. Backward passes the gradient where the
// output is positive, which a NaN output is not.
func TestReLUNaNRule(t *testing.T) {
	nan := math.NaN()
	in := []float64{nan, 0, math.Copysign(0, -1), 5e-324, -5e-324, 1, -1}
	want := []float64{nan, 0, 0, 5e-324, 0, 1, 0}
	passes := []bool{false, false, false, true, false, true, false}
	x := tensor.FromSlice(1, len(in), in)
	r := NewReLU()
	assertSameBits(t, "inference forward", forward1(r, x, false).Data, want)
	assertSameBits(t, "train forward", forward1(r, x, true).Data, want)
	g := tensor.New(1, len(in))
	g.Fill(3)
	dx := r.Backward(g)
	for i, p := range passes {
		w := 0.0
		if p {
			w = 3
		}
		if math.Float64bits(dx.Data[i]) != math.Float64bits(w) {
			t.Fatalf("Backward element %d (input %v): got %v, want %v", i, in[i], dx.Data[i], w)
		}
	}
	// The same values through a Dense(1→1, w=1, b=0)→ReLU network: at
	// inference the clamp runs in the GEMM epilogue, in training in the
	// ReLU layer. Each window is one value; the product's +0 start turns
	// −0 into +0 before either clamp sees it.
	d := NewDense(1, 1, tensor.NewRNG(1))
	d.Weight.W.Data[0], d.Bias.W.Data[0] = 1, 0
	net := NewNetwork(d, NewReLU())
	for i, v := range in {
		xi := tensor.FromSlice(1, 1, []float64{v})
		fused := net.Forward(tensor.NewWorkspace(), xi, false)
		trained := net.Forward(tensor.NewWorkspace(), xi, true)
		assertSameBits(t, fmt.Sprintf("input %d fused", i), fused.Data, want[i:i+1])
		assertSameBits(t, fmt.Sprintf("input %d train", i), trained.Data, want[i:i+1])
	}
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
