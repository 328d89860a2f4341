package nn

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cognitivearm/internal/tensor"
)

func qtRandWindows(rng *rand.Rand, b, rows, cols int) []*tensor.Matrix {
	xs := make([]*tensor.Matrix, b)
	for i := range xs {
		xs[i] = tensor.New(rows, cols)
		for j := range xs[i].Data {
			xs[i].Data[j] = rng.NormFloat64()
		}
	}
	return xs
}

// testCNN builds a small trained-shaped conv net: Conv1D→ReLU→MeanPool→
// Dropout→Dense — the serving CNN topology, covering both fusion pairs.
func testCNN(rng *tensor.RNG) *Network {
	return NewNetwork(
		NewConv1D(5, 8, 5, 2, rng),
		NewReLU(),
		NewMeanPool(),
		NewDropout(0.2, rng),
		NewDense(8, 4, rng),
	)
}

// unfused runs xs through net's layers one ForwardBatch at a time, so no
// Dense or Conv1D folds the following ReLU into its epilogue.
func unfused(net *Network, xs []*tensor.Matrix) []*tensor.Matrix {
	ws := tensor.NewWorkspace()
	for _, l := range net.Layers {
		xs = l.ForwardBatch(ws, xs, false)
	}
	return xs
}

// TestFusedEpilogueBitwise checks that the Dense→ReLU / Conv1D→ReLU fusion in
// Network.ForwardBatch is bitwise-identical to the per-layer composition it
// replaces, and to one-window Forward.
func TestFusedEpilogueBitwise(t *testing.T) {
	net := testCNN(tensor.NewRNG(7))
	rng := rand.New(rand.NewSource(7))
	xs := qtRandWindows(rng, 9, 50, 5)
	outs := net.ForwardBatch(tensor.NewWorkspace(), xs, false)
	layered := unfused(net, xs)
	for i, x := range xs {
		assertSameBits(t, fmt.Sprintf("window %d one-window", i), outs[i].Data, net.Forward(tensor.NewWorkspace(), x, false).Data)
		want := layered[i]
		got := outs[i]
		if want.Rows != got.Rows || want.Cols != got.Cols {
			t.Fatalf("window %d: shape mismatch", i)
		}
		for j := range want.Data {
			if want.Data[j] != got.Data[j] {
				t.Fatalf("window %d elem %d: fused %v != unfused %v", i, j, got.Data[j], want.Data[j])
			}
		}
	}
	// And with a workspace + kernel pool attached.
	ws := tensor.NewWorkspace()
	pool := tensor.NewPool(3)
	defer pool.Close()
	ws.SetPool(pool)
	pouts := net.ForwardBatch(ws, xs, false)
	for i := range xs {
		for j := range outs[i].Data {
			if outs[i].Data[j] != pouts[i].Data[j] {
				t.Fatalf("window %d elem %d: pooled path diverged", i, j)
			}
		}
	}
}

// TestFusedDenseNoReLU checks a Dense with no following ReLU still matches
// (bias-only epilogue).
func TestFusedDenseNoReLU(t *testing.T) {
	rng := tensor.NewRNG(8)
	net := NewNetwork(NewDense(6, 3, rng))
	xs := qtRandWindows(rand.New(rand.NewSource(8)), 5, 1, 6)
	outs := net.ForwardBatch(tensor.NewWorkspace(), xs, false)
	layered := unfused(net, xs)
	for i := range xs {
		want := layered[i]
		for j := range want.Data {
			if want.Data[j] != outs[i].Data[j] {
				t.Fatalf("window %d elem %d differs", i, j)
			}
		}
	}
}

func TestNetworkQuantizeAgreement(t *testing.T) {
	net := testCNN(tensor.NewRNG(9))
	qnet, err := net.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	if qnet.NumParams() != net.NumParams() {
		t.Fatalf("quantized NumParams %d != %d", qnet.NumParams(), net.NumParams())
	}
	rng := rand.New(rand.NewSource(9))
	xs := qtRandWindows(rng, 64, 50, 5)
	ws := tensor.NewWorkspace()
	want := net.PredictBatch(ws, xs, nil)
	wantCopy := append([]int(nil), want...)
	ws.Reset()
	got := qnet.PredictBatch(ws, xs, nil)
	agree := 0
	for i := range wantCopy {
		if got[i] == wantCopy[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(wantCopy)); frac < 0.95 {
		t.Fatalf("int8 agreement %.3f too low for a well-scaled net", frac)
	}
	// Single-window Predict must agree with the batched quantized path.
	ws.Reset()
	one := qnet.PredictBatch(ws, xs[:1], nil)
	if p := qnet.Predict(xs[0]); p != one[0] {
		t.Fatalf("quantized Predict %d != PredictBatch %d", p, one[0])
	}
}

func TestNetworkQuantizeUnsupported(t *testing.T) {
	rng := tensor.NewRNG(10)
	net := NewNetwork(NewLSTM(4, 8, rng), NewLastStep(), NewDense(8, 3, rng))
	if _, err := net.Quantize(); !errors.Is(err, ErrQuantUnsupported) {
		t.Fatalf("LSTM quantization: got %v, want ErrQuantUnsupported", err)
	}
}

func TestQuantizedBackwardPanics(t *testing.T) {
	rng := tensor.NewRNG(11)
	q := QuantizeDense(NewDense(3, 2, rng))
	defer func() {
		if recover() == nil {
			t.Fatal("QDense.Backward must panic")
		}
	}()
	q.Backward(nil)
}
