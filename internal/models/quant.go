package models

import (
	"errors"
	"fmt"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/nn"
	"cognitivearm/internal/rf"
	"cognitivearm/internal/tensor"
)

// ErrQuantUnsupported marks a classifier with no quantized inference form
// (LSTM/Transformer networks and ensembles keep their f64 kernels).
var ErrQuantUnsupported = errors.New("models: classifier has no quantized form")

// DefaultMinAgreement is the calibration gate's default: the quantized twin
// must reproduce the exact model's label on at least this fraction of the
// calibration windows or quantization is rejected.
const DefaultMinAgreement = 0.995

// DefaultCalibrationWindows is how many synthetic windows the gate scores
// when the caller supplies no calibration set.
const DefaultCalibrationWindows = 64

// QuantOptions configures Quantize. The zero value uses the defaults.
type QuantOptions struct {
	// MinAgreement is the calibration gate threshold; 0 means
	// DefaultMinAgreement.
	MinAgreement float64
	// Calibration is the window set the gate scores base vs quantized labels
	// on. nil falls back to DefaultCalibrationWindows deterministic
	// standard-normal windows shaped for the classifier — real recorded
	// windows give a sharper gate and should be preferred when available.
	Calibration []*tensor.Matrix
}

// CalibrationWindows builds n deterministic standard-normal windows of shape
// rows×cols — the default gate input when no recorded windows are supplied.
// The same (n, rows, cols, seed) always produces the same windows, so gate
// decisions are reproducible across restarts.
func CalibrationWindows(n, rows, cols int, seed uint64) []*tensor.Matrix {
	rng := tensor.NewRNG(seed ^ 0x51A7E5CA1E)
	out := make([]*tensor.Matrix, n)
	for i := range out {
		m := tensor.New(rows, cols)
		for j := range m.Data {
			m.Data[j] = rng.NormFloat64()
		}
		out[i] = m
	}
	return out
}

// QuantizedClassifier runs inference through a quantized twin while keeping
// the exact f64 classifier it was built from; NumParams/WindowSize/Name
// report Base. It is a measurement probe, not a serving mode: Save refuses
// it, so a hub whose registry held one could not checkpoint, journal or
// migrate.
type QuantizedClassifier struct {
	// Base is the exact f64 classifier quantization started from.
	Base Classifier
	// Quant is the inference twin: int8 GEMM for NN families, int16
	// threshold-compare forest for RF.
	Quant Classifier
	// Agreement is the label-agreement fraction measured by the last
	// Validate call (the calibration gate).
	Agreement float64
}

// Quantize builds the quantized inference twin of c and runs the calibration
// gate: base and quantized labels are compared on the calibration windows and
// the twin is rejected (error) when agreement falls below MinAgreement.
// Classifiers with no quantized form return ErrQuantUnsupported (wrapped).
func Quantize(c Classifier, opt QuantOptions) (*QuantizedClassifier, error) {
	if opt.MinAgreement <= 0 {
		opt.MinAgreement = DefaultMinAgreement
	}
	var quant Classifier
	switch v := c.(type) {
	case *NNClassifier:
		qnet, err := v.Net.Quantize()
		if err != nil {
			if errors.Is(err, nn.ErrQuantUnsupported) {
				return nil, fmt.Errorf("%w: %s", ErrQuantUnsupported, v.Name())
			}
			return nil, err
		}
		quant = &NNClassifier{Net: qnet, Spec: v.Spec}
	case *RFClassifier:
		quant = &qrfClassifier{qf: v.Forest.Quantize(), spec: v.Spec}
	default:
		return nil, fmt.Errorf("%w: %T", ErrQuantUnsupported, c)
	}
	qc := &QuantizedClassifier{Base: c, Quant: quant}
	calib := opt.Calibration
	if len(calib) == 0 {
		calib = CalibrationWindows(DefaultCalibrationWindows, c.WindowSize(), eeg.NumChannels, 1)
	}
	if err := qc.Validate(calib, opt.MinAgreement); err != nil {
		return nil, err
	}
	return qc, nil
}

// Validate runs the calibration gate: it classifies every calibration window
// through both Base and Quant, records the agreement fraction, and errors
// when it falls below minAgreement. Exposed separately so operators (and
// tests) can re-gate a quantized model against recorded traffic.
func (q *QuantizedClassifier) Validate(calib []*tensor.Matrix, minAgreement float64) error {
	if len(calib) == 0 {
		return errors.New("models: quantization gate needs calibration windows")
	}
	ws := tensor.NewWorkspace()
	base := PredictBatchWS(q.Base, ws, calib, nil)
	quant := PredictBatchWS(q.Quant, ws, calib, nil)
	agree := 0
	for i := range base {
		if base[i] == quant[i] {
			agree++
		}
	}
	q.Agreement = float64(agree) / float64(len(base))
	if q.Agreement < minAgreement {
		return fmt.Errorf("models: quantized %s agreement %.4f below gate %.4f on %d calibration windows",
			q.Base.Name(), q.Agreement, minAgreement, len(calib))
	}
	return nil
}

// Predict implements Classifier through the quantized twin.
func (q *QuantizedClassifier) Predict(x *tensor.Matrix) int { return q.Quant.Predict(x) }

// Probs implements Classifier through the quantized twin.
func (q *QuantizedClassifier) Probs(x *tensor.Matrix) []float64 { return q.Quant.Probs(x) }

// NumParams implements Classifier, reporting the exact model's size.
func (q *QuantizedClassifier) NumParams() int { return q.Base.NumParams() }

// WindowSize implements Classifier.
func (q *QuantizedClassifier) WindowSize() int { return q.Base.WindowSize() }

// Name implements Classifier, keeping the exact model's identity so registry
// keys and checkpoint manifests are unchanged by quantization.
func (q *QuantizedClassifier) Name() string { return q.Base.Name() }

// PredictBatchWS implements BatchPredictorWS through the quantized twin.
func (q *QuantizedClassifier) PredictBatchWS(ws *tensor.Workspace, xs []*tensor.Matrix, dst []int) []int {
	return PredictBatchWS(q.Quant, ws, xs, dst)
}

// qrfClassifier serves an RF spec through the int16 threshold-quantized
// forest. Feature extraction stays exact f64 (dataset.FeatureVectorInto);
// only the split comparisons run on the quantized grid.
type qrfClassifier struct {
	qf   *rf.QForest
	spec Spec
}

// Predict implements Classifier.
func (c *qrfClassifier) Predict(x *tensor.Matrix) int {
	fv := dataset.FeatureVector(dataset.Window{Data: x})
	return c.qf.PredictBatchWS(tensor.NewWorkspace(), [][]float64{fv}, nil)[0]
}

// Probs implements Classifier.
func (c *qrfClassifier) Probs(x *tensor.Matrix) []float64 {
	fv := dataset.FeatureVector(dataset.Window{Data: x})
	return c.qf.ProbsBatchWS(tensor.NewWorkspace(), [][]float64{fv})[0]
}

// NumParams implements Classifier (total node count, like RFClassifier).
func (c *qrfClassifier) NumParams() int { return c.qf.NodeCount() }

// WindowSize implements Classifier.
func (c *qrfClassifier) WindowSize() int { return c.spec.WindowSize }

// Name implements Classifier.
func (c *qrfClassifier) Name() string { return c.spec.ID() + "-int16" }

// PredictBatchWS implements BatchPredictorWS, mirroring RFClassifier.
func (c *qrfClassifier) PredictBatchWS(ws *tensor.Workspace, xs []*tensor.Matrix, dst []int) []int {
	X := ws.FloatRows(len(xs))
	for i, x := range xs {
		X[i] = dataset.FeatureVectorInto(ws.Floats(5*x.Cols), dataset.Window{Data: x})
	}
	return c.qf.PredictBatchWS(ws, X, dst)
}
