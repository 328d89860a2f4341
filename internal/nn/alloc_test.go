package nn

import (
	"testing"

	"cognitivearm/internal/tensor"
)

// TestForwardBatchAllocFree pins the steady-state allocation count of the
// fused batched inference path at zero for every NN family shape: with a
// warmed workspace reset per cycle and a reused label buffer, a serving
// shard's classify call must never touch the heap. This is a regression
// gate — any new per-batch allocation in a kernel fails it.
func TestForwardBatchAllocFree(t *testing.T) {
	rng := tensor.NewRNG(9)
	const B, T, C = 16, 24, 6
	nets := map[string]*Network{
		"cnn": NewNetwork(
			NewConv1D(C, 8, 5, 2, rng), NewReLU(), NewPool1D(MaxPoolKind, 2),
			NewMeanPool(), NewDropout(0.2, rng.Fork()), NewDense(8, 3, rng),
		),
		"lstm": NewNetwork(
			NewLSTM(C, 12, rng), NewLastStep(), NewDense(12, 3, rng),
		),
		"transformer": NewNetwork(
			NewDense(C, 8, rng), NewPositionalEncoding(8),
			TransformerBlock(8, 2, 16, 0.1, rng),
			NewMeanPool(), NewDense(8, 3, rng),
		),
	}
	// Unfused Conv1D, and the int8 layers in both their fused and plain
	// forms, from their own generator so the windows below stay as they were.
	qrng := tensor.NewRNG(10)
	nets["conv-meanpool"] = NewNetwork(NewConv1D(C, 8, 5, 2, qrng), NewMeanPool(), NewDense(8, 3, qrng))
	for _, name := range []string{"cnn", "conv-meanpool"} {
		q, err := nets[name].Quantize()
		if err != nil {
			t.Fatal(err)
		}
		nets[name+"-int8"] = q
	}
	xs := make([]*tensor.Matrix, B)
	for i := range xs {
		xs[i] = tensor.New(T, C)
		for j := range xs[i].Data {
			xs[i].Data[j] = rng.NormFloat64()
		}
	}
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			ws := tensor.NewWorkspace()
			labels := make([]int, 0, B)
			cycle := func() {
				ws.Reset()
				labels = net.PredictBatch(ws, xs, labels[:0])
			}
			cycle() // populate every bucket the forward pass touches
			if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
				t.Fatalf("steady-state PredictBatch allocates %.1f times per call, want 0", avg)
			}
		})
	}
}

// TestForwardTrainAllocFree: a train-mode forward draws every cache Backward
// reads from the workspace, so with a warmed workspace reset per example it
// allocates nothing, dropout masks, LSTM steps and attention weights
// included.
func TestForwardTrainAllocFree(t *testing.T) {
	rng := tensor.NewRNG(11)
	const T, C = 24, 6
	nets := map[string]*Network{
		"cnn": NewNetwork(
			NewConv1D(C, 8, 5, 2, rng), NewReLU(), NewPool1D(MaxPoolKind, 2),
			NewMeanPool(), NewDropout(0.2, rng.Fork()), NewDense(8, 3, rng),
		),
		"lstm": NewNetwork(NewLSTM(C, 12, rng), NewLastStep(), NewDense(12, 3, rng)),
		"transformer": NewNetwork(
			NewDense(C, 8, rng), NewPositionalEncoding(8),
			TransformerBlock(8, 2, 16, 0.1, rng),
			NewMeanPool(), NewDense(8, 3, rng),
		),
	}
	x := randWindows(1, T, C, rng)[0]
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			ws := tensor.NewWorkspace()
			cycle := func() {
				ws.Reset()
				net.Forward(ws, x, true)
			}
			cycle()
			if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
				t.Fatalf("steady-state train-mode Forward allocates %.1f times per call, want 0", avg)
			}
		})
	}
}
