package models

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/tensor"
)

// quantWindows builds synthetic labelled windows with a per-class mean shift
// strong enough for a small forest or CNN to learn decisively.
func quantWindows(rng *rand.Rand, n, rows int) []dataset.Window {
	out := make([]dataset.Window, n)
	for i := range out {
		cls := rng.Intn(eeg.NumActions)
		m := tensor.New(rows, eeg.NumChannels)
		for j := range m.Data {
			m.Data[j] = rng.NormFloat64() + 1.5*float64(cls)
		}
		out[i] = dataset.Window{Data: m, Label: eeg.Action(cls)}
	}
	return out
}

func calibFrom(ws []dataset.Window) []*tensor.Matrix {
	xs := make([]*tensor.Matrix, len(ws))
	for i := range ws {
		xs[i] = ws[i].Data
	}
	return xs
}

func TestQuantizeRF(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	train := quantWindows(rng, 240, 30)
	spec := Spec{Family: FamilyRF, WindowSize: 30, Trees: 25, MaxDepth: 8}
	clf, _, err := Train(spec, train, nil, TrainOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	calib := calibFrom(quantWindows(rng, 80, 30))
	qc, err := Quantize(clf, QuantOptions{MinAgreement: 0.95, Calibration: calib})
	if err != nil {
		t.Fatal(err)
	}
	if qc.Agreement < 0.95 {
		t.Fatalf("gate passed but Agreement=%.4f", qc.Agreement)
	}
	if qc.NumParams() != clf.NumParams() || qc.Name() != clf.Name() {
		t.Fatalf("quantized identity diverged from base: %s/%d vs %s/%d",
			qc.Name(), qc.NumParams(), clf.Name(), clf.NumParams())
	}
	// The WS batched path and per-window Predict agree with each other.
	ws := tensor.NewWorkspace()
	got := qc.PredictBatchWS(ws, calib, nil)
	for i, x := range calib {
		if p := qc.Predict(x); p != got[i] {
			t.Fatalf("window %d: Predict %d != PredictBatchWS %d", i, p, got[i])
		}
	}
}

func TestQuantizeCNNAndSerializeBase(t *testing.T) {
	spec := Spec{Family: FamilyCNN, WindowSize: 40, Optimizer: "adam", LR: 1e-3,
		ConvLayers: 1, Filters: 8, Kernel: 5, Stride: 2, Pool: "none"}
	net, err := BuildNet(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	clf := &NNClassifier{Net: net, Spec: spec}
	qc, err := Quantize(clf, QuantOptions{MinAgreement: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if qc.Agreement < 0.9 {
		t.Fatalf("gate passed but Agreement=%.4f", qc.Agreement)
	}

	// A quantized twin is a probe, not a serving mode: Save refuses it rather
	// than persist a Base that would restore as a different decoder.
	var buf bytes.Buffer
	if err := Save(&buf, qc); err == nil {
		t.Fatal("Save accepted a quantized classifier")
	}
}

func TestQuantizeUnsupportedFamilies(t *testing.T) {
	spec := Spec{Family: FamilyLSTM, WindowSize: 20, Optimizer: "adam", LR: 1e-3,
		LSTMLayers: 1, Hidden: 8}
	net, err := BuildNet(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Quantize(&NNClassifier{Net: net, Spec: spec}, QuantOptions{}); !errors.Is(err, ErrQuantUnsupported) {
		t.Fatalf("LSTM: got %v, want ErrQuantUnsupported", err)
	}
	if _, err := Quantize(dummyClassifier{}, QuantOptions{}); !errors.Is(err, ErrQuantUnsupported) {
		t.Fatalf("unknown type: got %v, want ErrQuantUnsupported", err)
	}
}

// misscaledDense is a quantized twin with deliberately corrupted QMatrix
// scales: one output row's scale is inflated 8×, so that class's logit
// dominates and labels flip. The calibration gate must reject it.
type misscaledDense struct {
	in, out int
	q       *tensor.QMatrix
	bias    []float64
}

func (m misscaledDense) Predict(x *tensor.Matrix) int {
	y := tensor.MatMulQ(nil, nil, x, m.q, tensor.Epilogue{Bias: m.bias})
	return tensor.Argmax(y.Data)
}
func (m misscaledDense) Probs(x *tensor.Matrix) []float64 { return nil }
func (m misscaledDense) NumParams() int                   { return m.in * m.out }
func (m misscaledDense) WindowSize() int                  { return 1 }
func (m misscaledDense) Name() string                     { return "misscaled" }

type dummyClassifier struct{}

func (dummyClassifier) Predict(*tensor.Matrix) int     { return 0 }
func (dummyClassifier) Probs(*tensor.Matrix) []float64 { return nil }
func (dummyClassifier) NumParams() int                 { return 0 }
func (dummyClassifier) WindowSize() int                { return 10 }
func (dummyClassifier) Name() string                   { return "dummy" }

// TestQuantizeGateRejectsMisscaled corrupts a QMatrix's per-row scales and
// checks the calibration gate refuses the twin.
func TestQuantizeGateRejectsMisscaled(t *testing.T) {
	rng := tensor.NewRNG(13)
	in, out := 12, eeg.NumActions
	w := tensor.New(in, out)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	bias := make([]float64, out)
	base := &linearClassifier{w: w, bias: bias}

	q := tensor.QuantizeWeights(w)
	q.Scales[0] *= 8 // deliberate mis-scale: class 0's logits inflate 8×
	twin := misscaledDense{in: in, out: out, q: q, bias: bias}

	qc := &QuantizedClassifier{Base: base, Quant: twin}
	calib := CalibrationWindows(64, 1, in, 17)
	err := qc.Validate(calib, 0.995)
	if err == nil {
		t.Fatalf("gate accepted a mis-scaled QMatrix (agreement %.4f)", qc.Agreement)
	}
	if qc.Agreement >= 0.995 {
		t.Fatalf("mis-scaled agreement %.4f implausibly high", qc.Agreement)
	}

	// Sanity: the same weights without corruption pass the gate.
	good := &QuantizedClassifier{Base: base,
		Quant: misscaledDense{in: in, out: out, q: tensor.QuantizeWeights(w), bias: bias}}
	if err := good.Validate(calib, 0.9); err != nil {
		t.Fatalf("uncorrupted twin rejected: %v", err)
	}
}

// linearClassifier is the exact f64 counterpart of misscaledDense.
type linearClassifier struct {
	w    *tensor.Matrix
	bias []float64
}

func (c *linearClassifier) Predict(x *tensor.Matrix) int {
	y := tensor.GEMM(nil, nil, x, c.w, tensor.Epilogue{Bias: c.bias})
	return tensor.Argmax(y.Data)
}
func (c *linearClassifier) Probs(*tensor.Matrix) []float64 { return nil }
func (c *linearClassifier) NumParams() int                 { return len(c.w.Data) }
func (c *linearClassifier) WindowSize() int                { return 1 }
func (c *linearClassifier) Name() string                   { return "linear" }
