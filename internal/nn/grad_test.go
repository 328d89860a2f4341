package nn

import (
	"math"
	"testing"

	"cognitivearm/internal/tensor"
)

// lossOf runs a full one-window train-mode forward pass and returns the
// cross-entropy loss. Used by the finite-difference checks; train=true so
// cached state matches the analytic backward pass (dropout is kept at 0 in
// these nets).
func lossOf(net *Network, x *tensor.Matrix, label int) float64 {
	out := net.ForwardBatch(tensor.NewWorkspace(), []*tensor.Matrix{x}, true)[0]
	loss, _ := CrossEntropy(out, label)
	return loss
}

// checkGradients compares analytic parameter and input gradients against
// central finite differences. stride subsamples which weights are probed so
// big layers stay fast.
func checkGradients(t *testing.T, net *Network, x *tensor.Matrix, label int, stride int, tol float64) {
	t.Helper()
	const eps = 1e-5
	net.ZeroGrad()
	out := net.ForwardBatch(tensor.NewWorkspace(), []*tensor.Matrix{x}, true)[0]
	_, grad := CrossEntropy(out, label)
	dx := net.Backward(grad)

	for _, p := range net.Params() {
		for i := 0; i < len(p.W.Data); i += stride {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := lossOf(net, x, label)
			p.W.Data[i] = orig - eps
			lm := lossOf(net, x, label)
			p.W.Data[i] = orig
			want := (lp - lm) / (2 * eps)
			got := p.Grad.Data[i]
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("param %s[%d]: analytic %.8f vs numeric %.8f", p.Name, i, got, want)
			}
		}
	}
	for i := 0; i < len(x.Data); i += stride {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := lossOf(net, x, label)
		x.Data[i] = orig - eps
		lm := lossOf(net, x, label)
		x.Data[i] = orig
		want := (lp - lm) / (2 * eps)
		got := dx.Data[i]
		if math.Abs(got-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("input[%d]: analytic %.8f vs numeric %.8f", i, got, want)
		}
	}
}

func randInput(rows, cols int, seed uint64) *tensor.Matrix {
	rng := tensor.NewRNG(seed)
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestGradDense(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := NewNetwork(NewDense(6, 4, rng), NewReLU(), NewDense(4, 3, rng))
	checkGradients(t, net, randInput(1, 6, 2), 1, 1, 1e-4)
}

func TestGradConv(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := NewNetwork(
		NewConv1D(4, 5, 3, 2, rng),
		NewReLU(),
		NewMeanPool(),
		NewDense(5, 3, rng),
	)
	checkGradients(t, net, randInput(9, 4, 4), 2, 1, 1e-4)
}

func TestGradConvWithPooling(t *testing.T) {
	rng := tensor.NewRNG(5)
	for _, kind := range []PoolKind{MaxPoolKind, AvgPoolKind} {
		net := NewNetwork(
			NewConv1D(3, 4, 3, 1, rng),
			NewReLU(),
			NewPool1D(kind, 2),
			NewMeanPool(),
			NewDense(4, 3, rng),
		)
		checkGradients(t, net, randInput(10, 3, 6), 0, 1, 1e-4)
	}
}

func TestGradLSTM(t *testing.T) {
	rng := tensor.NewRNG(7)
	net := NewNetwork(
		NewLSTM(3, 5, rng),
		NewLastStep(),
		NewDense(5, 3, rng),
	)
	checkGradients(t, net, randInput(6, 3, 8), 2, 1, 1e-4)
}

func TestGradStackedLSTM(t *testing.T) {
	rng := tensor.NewRNG(9)
	net := NewNetwork(
		NewLSTM(3, 4, rng),
		NewLSTM(4, 4, rng),
		NewLastStep(),
		NewDense(4, 3, rng),
	)
	checkGradients(t, net, randInput(5, 3, 10), 1, 3, 1e-4)
}

func TestGradLayerNorm(t *testing.T) {
	rng := tensor.NewRNG(11)
	net := NewNetwork(
		NewDense(4, 4, rng),
		NewLayerNorm(4),
		NewMeanPool(),
		NewDense(4, 3, rng),
	)
	checkGradients(t, net, randInput(5, 4, 12), 0, 1, 1e-4)
}

func TestGradAttention(t *testing.T) {
	rng := tensor.NewRNG(13)
	net := NewNetwork(
		NewMultiHeadAttention(6, 2, rng),
		NewMeanPool(),
		NewDense(6, 3, rng),
	)
	checkGradients(t, net, randInput(5, 6, 14), 2, 1, 1e-4)
}

func TestGradFullTransformerBlock(t *testing.T) {
	rng := tensor.NewRNG(15)
	net := NewNetwork(
		NewDense(4, 8, rng), // input projection
		NewPositionalEncoding(8),
		TransformerBlock(8, 2, 16, 0, rng),
		NewMeanPool(),
		NewDense(8, 3, rng),
	)
	checkGradients(t, net, randInput(6, 4, 16), 0, 5, 2e-4)
}

func TestGradMeanPoolAndLastStep(t *testing.T) {
	rng := tensor.NewRNG(17)
	netA := NewNetwork(NewMeanPool(), NewDense(3, 2, rng))
	checkGradients(t, netA, randInput(4, 3, 18), 0, 1, 1e-4)
	netB := NewNetwork(NewLastStep(), NewDense(3, 2, rng))
	checkGradients(t, netB, randInput(4, 3, 19), 1, 1, 1e-4)
}
