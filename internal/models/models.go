// Package models defines CognitiveArm's classifier zoo (Table III): CNN,
// LSTM and Transformer networks built on internal/nn, plus the Random Forest
// on internal/rf, all behind one Classifier interface so the evolutionary
// search, ensembling, compression and the control loop can treat them
// uniformly.
//
// Serving resolves each session's path once, when a shard takes it: the NN,
// forest and quantized classifiers batch a shard's windows on the caller's
// tensor.Workspace (BatchPredictorWS, which requires one), a CNN also
// streams its first convolution (StreamPredictorWS), and classifiers with no
// batched form (ensembles, compress.ActivationQuantized) are classified a
// window at a time (PredictEach). PredictBatchWS makes that choice per call.
package models

import (
	"fmt"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/nn"
	"cognitivearm/internal/rf"
	"cognitivearm/internal/tensor"
)

// Family enumerates the model families of the paper's pool.
type Family int

// The four families (§III-C1).
const (
	FamilyCNN Family = iota
	FamilyLSTM
	FamilyTransformer
	FamilyRF
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamilyCNN:
		return "cnn"
	case FamilyLSTM:
		return "lstm"
	case FamilyTransformer:
		return "transformer"
	case FamilyRF:
		return "rf"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Families lists all families.
func Families() []Family {
	return []Family{FamilyCNN, FamilyLSTM, FamilyTransformer, FamilyRF}
}

// Spec is a complete hyperparameter assignment — one genome of the
// evolutionary search. Only the fields relevant to Family are read.
type Spec struct {
	Family     Family
	WindowSize int     // samples per window (paper sweeps 100–200)
	Optimizer  string  // adam | sgd | rmsprop | adamw
	LR         float64 // learning rate
	Dropout    float64

	// CNN fields (Table III row 2).
	ConvLayers int
	Filters    int
	Kernel     int
	Stride     int
	Pool       string // "max" | "avg" | "none"

	// LSTM fields (row 1).
	LSTMLayers int
	Hidden     int

	// Transformer fields (row 4).
	TFLayers int
	Heads    int
	DModel   int
	FFDim    int

	// Random-Forest fields (row 3).
	Trees    int
	MaxDepth int // 0 = unlimited ("None")
}

// ID renders a short unique label for tables and logs.
func (s Spec) ID() string {
	switch s.Family {
	case FamilyCNN:
		return fmt.Sprintf("cnn-l%d-f%d-k%d-s%d-%s-w%d", s.ConvLayers, s.Filters, s.Kernel, s.Stride, s.Pool, s.WindowSize)
	case FamilyLSTM:
		return fmt.Sprintf("lstm-l%d-h%d-w%d", s.LSTMLayers, s.Hidden, s.WindowSize)
	case FamilyTransformer:
		return fmt.Sprintf("tf-l%d-h%d-d%d-ff%d-w%d", s.TFLayers, s.Heads, s.DModel, s.FFDim, s.WindowSize)
	case FamilyRF:
		return fmt.Sprintf("rf-t%d-d%d-w%d", s.Trees, s.MaxDepth, s.WindowSize)
	default:
		return "unknown"
	}
}

// Validate reports whether the spec is internally consistent.
func (s Spec) Validate() error {
	if s.WindowSize < 10 {
		return fmt.Errorf("models: window size %d too small", s.WindowSize)
	}
	switch s.Family {
	case FamilyCNN:
		if s.ConvLayers < 1 || s.Filters < 1 || s.Kernel < 1 || s.Stride < 1 {
			return fmt.Errorf("models: bad CNN spec %+v", s)
		}
	case FamilyLSTM:
		if s.LSTMLayers < 1 || s.Hidden < 1 {
			return fmt.Errorf("models: bad LSTM spec %+v", s)
		}
	case FamilyTransformer:
		if s.TFLayers < 1 || s.Heads < 1 || s.DModel < s.Heads || s.DModel%s.Heads != 0 || s.FFDim < 1 {
			return fmt.Errorf("models: bad transformer spec %+v", s)
		}
	case FamilyRF:
		if s.Trees < 1 {
			return fmt.Errorf("models: bad RF spec %+v", s)
		}
	default:
		return fmt.Errorf("models: unknown family %d", s.Family)
	}
	return nil
}

// PaperSpecs returns the four Pareto-optimal configurations reported in §V:
// CNN(1 conv, 32 filters, k5, s2, window 190), LSTM(1×512, window 130),
// Transformer(2 layers, 2 heads, d128, ff512, window 190) and
// RF(200 estimators, depth 20, window 90).
func PaperSpecs() []Spec {
	return []Spec{
		{Family: FamilyCNN, WindowSize: 190, Optimizer: "adam", LR: 1e-3, Dropout: 0.2,
			ConvLayers: 1, Filters: 32, Kernel: 5, Stride: 2, Pool: "none"},
		{Family: FamilyLSTM, WindowSize: 130, Optimizer: "adam", LR: 1e-3, Dropout: 0.3,
			LSTMLayers: 1, Hidden: 512},
		{Family: FamilyTransformer, WindowSize: 190, Optimizer: "adamw", LR: 1e-3, Dropout: 0.1,
			TFLayers: 2, Heads: 2, DModel: 128, FFDim: 512},
		{Family: FamilyRF, WindowSize: 90, Trees: 200, MaxDepth: 20},
	}
}

// ScaledPaperSpecs returns compute-scaled versions of the paper configs for
// pure-Go training runs: same shapes and relative ordering, smaller widths
// (an RTX A6000 trains the originals; this library trains on one CPU).
func ScaledPaperSpecs() []Spec {
	return []Spec{
		{Family: FamilyCNN, WindowSize: 190, Optimizer: "adam", LR: 1e-3, Dropout: 0.2,
			ConvLayers: 1, Filters: 32, Kernel: 5, Stride: 2, Pool: "none"},
		{Family: FamilyLSTM, WindowSize: 130, Optimizer: "adam", LR: 3e-3, Dropout: 0.2,
			LSTMLayers: 1, Hidden: 64},
		{Family: FamilyTransformer, WindowSize: 190, Optimizer: "adamw", LR: 1e-3, Dropout: 0.1,
			TFLayers: 2, Heads: 2, DModel: 32, FFDim: 64},
		{Family: FamilyRF, WindowSize: 90, Trees: 100, MaxDepth: 20},
	}
}

// Classifier is the uniform inference interface consumed by ensembles,
// compression, evaluation and the real-time control loop. Trained
// classifiers are read-only at inference time and safe for concurrent
// Predict/Probs calls from many goroutines — the contract the serving hub
// (internal/serve) relies on to share one model across sessions.
type Classifier interface {
	// Predict returns the action class for one window (rows=time,
	// cols=channels).
	Predict(x *tensor.Matrix) int
	// Probs returns per-class probabilities for one window.
	Probs(x *tensor.Matrix) []float64
	// NumParams is the model-size objective (NN weights or forest nodes).
	NumParams() int
	// WindowSize is the input length the model expects.
	WindowSize() int
	// Name is a short human-readable identifier.
	Name() string
}

// BatchPredictorWS is the optional batched-inference extension of
// Classifier. The serving hub coalesces ready windows from many concurrent
// sessions into one call per shard tick and passes its per-shard
// tensor.Workspace and a reused label buffer, so the steady-state classify
// call allocates nothing. Implementations exploit the batch for cache
// locality (the forest walks tree-major) or fuse it into batch×feature GEMMs
// (NN families), and must produce the labels per-window Predict would.
type BatchPredictorWS interface {
	// PredictBatchWS classifies many windows drawing every temporary from
	// ws, which is required, and writing labels into dst when it has
	// capacity (dst may be nil).
	PredictBatchWS(ws *tensor.Workspace, xs []*tensor.Matrix, dst []int) []int
}

// PredictBatchWS classifies a batch through c's batched path when it
// implements BatchPredictorWS (allocation-free with a warm ws), and through
// per-window Predict otherwise. The per-window path carries real traffic:
// ensembles and compress.ActivationQuantized have no batched form, and a hub
// can serve an ensemble. Labels land in dst when it has capacity. It is safe
// for concurrent use with other inference calls provided ws is not shared
// across concurrent callers.
func PredictBatchWS(c Classifier, ws *tensor.Workspace, xs []*tensor.Matrix, dst []int) []int {
	if bp, ok := c.(BatchPredictorWS); ok {
		return bp.PredictBatchWS(ws, xs, dst)
	}
	return PredictEach(c, xs, dst)
}

// PredictEach classifies a batch one window at a time through Predict, the
// path of a classifier with no batched form. Labels land in dst when it has
// capacity.
func PredictEach(c Classifier, xs []*tensor.Matrix, dst []int) []int {
	if cap(dst) < len(xs) {
		dst = make([]int, len(xs))
	}
	dst = dst[:len(xs)]
	for i, x := range xs {
		dst[i] = c.Predict(x)
	}
	return dst
}

// StreamPredictorWS is the optional streaming extension of
// BatchPredictorWS, for classifiers that keep per-session state between
// classifications of one sliding window (nn.ConvStream). The serving hub
// makes one stream per session when a shard takes the session, and passes
// each window's stream beside it; the labels are PredictBatchWS's. The hub
// resolves this interface once per session, never per tick.
type StreamPredictorWS interface {
	// NewStream returns an empty stream for one session, or nil when the
	// classifier has nothing to stream.
	NewStream() *nn.ConvStream
	// PredictStreamWS classifies xs[i] with streams[i], which must have
	// followed that session's window since NewStream, drawing every
	// temporary from ws and writing labels into dst when it has capacity.
	PredictStreamWS(ws *tensor.Workspace, xs []*tensor.Matrix, streams []*nn.ConvStream, dst []int) []int
}

// NNClassifier wraps an nn.Network with its spec.
type NNClassifier struct {
	Net  *nn.Network
	Spec Spec
}

// Predict implements Classifier.
func (c *NNClassifier) Predict(x *tensor.Matrix) int { return c.Net.Predict(x) }

// Probs implements Classifier.
func (c *NNClassifier) Probs(x *tensor.Matrix) []float64 { return c.Net.Probs(x) }

// NumParams implements Classifier.
func (c *NNClassifier) NumParams() int { return c.Net.NumParams() }

// WindowSize implements Classifier.
func (c *NNClassifier) WindowSize() int { return c.Spec.WindowSize }

// Name implements Classifier.
func (c *NNClassifier) Name() string { return c.Spec.ID() }

// PredictBatchWS implements BatchPredictorWS through nn's fused
// ForwardBatch, where Dense/Conv1D/attention collapse the B per-window
// matmuls into single batch×feature GEMMs and the LSTM steps all windows
// together. Batched forwards write no layer state, so the calls are safe
// alongside concurrent Predict traffic. A shard batches sessions sharing one
// model and hence one window size, so the windows share one shape; a mixed
// batch panics, naming both shapes.
func (c *NNClassifier) PredictBatchWS(ws *tensor.Workspace, xs []*tensor.Matrix, dst []int) []int {
	return c.Net.PredictBatch(ws, xs, dst)
}

// NewStream implements StreamPredictorWS: a network whose first layer is a
// Conv1D streams it (nn.Network.NewConvStream); the others return nil.
func (c *NNClassifier) NewStream() *nn.ConvStream { return c.Net.NewConvStream(c.Spec.WindowSize) }

// PredictStreamWS implements StreamPredictorWS through
// nn.Network.PredictStream.
func (c *NNClassifier) PredictStreamWS(ws *tensor.Workspace, xs []*tensor.Matrix, streams []*nn.ConvStream, dst []int) []int {
	return c.Net.PredictStream(ws, xs, streams, dst)
}

// RFClassifier wraps a trained forest plus the feature extraction step.
type RFClassifier struct {
	Forest *rf.Forest
	Spec   Spec
}

// Predict implements Classifier.
func (c *RFClassifier) Predict(x *tensor.Matrix) int {
	return c.Forest.Predict(dataset.FeatureVector(dataset.Window{Data: x}))
}

// Probs implements Classifier.
func (c *RFClassifier) Probs(x *tensor.Matrix) []float64 {
	return c.Forest.Probs(dataset.FeatureVector(dataset.Window{Data: x}))
}

// NumParams implements Classifier. For forests the paper reports total node
// count (Fig. 9: "72000 total nodes").
func (c *RFClassifier) NumParams() int { return c.Forest.NodeCount() }

// WindowSize implements Classifier.
func (c *RFClassifier) WindowSize() int { return c.Spec.WindowSize }

// Name implements Classifier.
func (c *RFClassifier) Name() string { return c.Spec.ID() }

// PredictBatchWS implements BatchPredictorWS: features are extracted per
// window into rows from ws, then the forest routes the whole batch tree-major
// (see rf.Forest.ProbsBatchWS) so each tree's nodes are walked while still
// cache-hot; the vote accumulators come from ws too.
func (c *RFClassifier) PredictBatchWS(ws *tensor.Workspace, xs []*tensor.Matrix, dst []int) []int {
	X := ws.FloatRows(len(xs))
	for i, x := range xs {
		X[i] = dataset.FeatureVectorInto(ws.Floats(5*x.Cols), dataset.Window{Data: x})
	}
	return c.Forest.PredictBatchWS(ws, X, dst)
}

// BuildNet constructs the (untrained) network for an NN-family spec.
func BuildNet(s Spec, seed uint64) (*nn.Network, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed ^ 0xBADC0FFE)
	in := eeg.NumChannels
	switch s.Family {
	case FamilyCNN:
		var layers []nn.Layer
		t := s.WindowSize
		ch := in
		for l := 0; l < s.ConvLayers; l++ {
			conv := nn.NewConv1D(ch, s.Filters, s.Kernel, s.Stride, rng)
			if conv.OutLen(t) < 1 {
				return nil, fmt.Errorf("models: conv stack collapses input (%s)", s.ID())
			}
			layers = append(layers, conv, nn.NewReLU())
			t = conv.OutLen(t)
			ch = s.Filters
			switch s.Pool {
			case "max":
				layers = append(layers, nn.NewPool1D(nn.MaxPoolKind, 2))
				t = maxInt(1, t/2)
			case "avg":
				layers = append(layers, nn.NewPool1D(nn.AvgPoolKind, 2))
				t = maxInt(1, t/2)
			}
		}
		// Global average pooling over time: rectified conv activations
		// average to a per-filter amplitude estimate, the band-power readout
		// a motor-imagery CNN needs (and far fewer parameters than flatten).
		layers = append(layers,
			nn.NewMeanPool(),
			nn.NewDropout(s.Dropout, rng.Fork()),
			nn.NewDense(ch, eeg.NumActions, rng),
		)
		return nn.NewNetwork(layers...), nil
	case FamilyLSTM:
		var layers []nn.Layer
		width := in
		for l := 0; l < s.LSTMLayers; l++ {
			layers = append(layers, nn.NewLSTM(width, s.Hidden, rng))
			width = s.Hidden
		}
		layers = append(layers,
			nn.NewLastStep(),
			nn.NewDropout(s.Dropout, rng.Fork()),
			nn.NewDense(s.Hidden, eeg.NumActions, rng),
		)
		return nn.NewNetwork(layers...), nil
	case FamilyTransformer:
		layers := []nn.Layer{
			nn.NewDense(in, s.DModel, rng),
			nn.NewPositionalEncoding(s.DModel),
		}
		for l := 0; l < s.TFLayers; l++ {
			layers = append(layers, nn.TransformerBlock(s.DModel, s.Heads, s.FFDim, s.Dropout, rng))
		}
		layers = append(layers, nn.NewMeanPool(), nn.NewDense(s.DModel, eeg.NumActions, rng))
		return nn.NewNetwork(layers...), nil
	default:
		return nil, fmt.Errorf("models: BuildNet does not handle family %v", s.Family)
	}
}

// TrainOptions configures Train.
type TrainOptions struct {
	Epochs    int
	BatchSize int
	Patience  int
	Seed      uint64
	Verbose   bool
	Logf      func(string, ...any)
}

// Result reports a training run.
type Result struct {
	ValAcc    float64
	ValLoss   float64
	History   nn.History
	NumParams int
}

// ToExamples converts labelled windows to nn training examples.
func ToExamples(ws []dataset.Window) []nn.Example {
	out := make([]nn.Example, len(ws))
	for i, w := range ws {
		out[i] = nn.Example{X: w.Data, Label: int(w.Label)}
	}
	return out
}

// Train fits the spec on the given windows and returns the trained
// classifier with its validation accuracy.
func Train(s Spec, train, val []dataset.Window, opt TrainOptions) (Classifier, Result, error) {
	if err := s.Validate(); err != nil {
		return nil, Result{}, err
	}
	if len(train) == 0 {
		return nil, Result{}, fmt.Errorf("models: empty training set")
	}
	if s.Family == FamilyRF {
		X := make([][]float64, len(train))
		y := make([]int, len(train))
		for i, w := range train {
			X[i] = dataset.FeatureVector(w)
			y[i] = int(w.Label)
		}
		forest, err := rf.Fit(X, y, eeg.NumActions, rf.Config{
			Trees: s.Trees, MaxDepth: s.MaxDepth, MinSamplesSplit: 2, Seed: opt.Seed,
		})
		if err != nil {
			return nil, Result{}, err
		}
		clf := &RFClassifier{Forest: forest, Spec: s}
		res := Result{NumParams: clf.NumParams()}
		res.ValAcc = accuracyOn(clf, val)
		return clf, res, nil
	}

	net, err := BuildNet(s, opt.Seed)
	if err != nil {
		return nil, Result{}, err
	}
	optim, err := nn.NewOptimizer(s.Optimizer, s.LR)
	if err != nil {
		return nil, Result{}, err
	}
	hist := nn.Fit(net, ToExamples(train), ToExamples(val), nn.TrainConfig{
		Epochs:      opt.Epochs,
		BatchSize:   opt.BatchSize,
		Optimizer:   optim,
		Patience:    opt.Patience,
		MaxGradNorm: 5,
		Seed:        opt.Seed,
		Verbose:     opt.Verbose,
		Logf:        opt.Logf,
	})
	clf := &NNClassifier{Net: net, Spec: s}
	res := Result{History: hist, NumParams: net.NumParams()}
	if n := len(hist.ValAcc); n > 0 {
		res.ValAcc = hist.ValAcc[n-1]
		res.ValLoss = hist.ValLoss[n-1]
	}
	return clf, res, nil
}

// accuracyOn scores any classifier on labelled windows.
func accuracyOn(c Classifier, ws []dataset.Window) float64 {
	if len(ws) == 0 {
		return 0
	}
	correct := 0
	for _, w := range ws {
		if c.Predict(w.Data) == int(w.Label) {
			correct++
		}
	}
	return float64(correct) / float64(len(ws))
}

// Accuracy is the exported scoring helper used across the experiment
// harnesses.
func Accuracy(c Classifier, ws []dataset.Window) float64 { return accuracyOn(c, ws) }

// OpsPerInference estimates multiply-accumulate operations for one window —
// the workload number the edge-latency model consumes.
func OpsPerInference(s Spec) int64 {
	in := int64(eeg.NumChannels)
	w := int64(s.WindowSize)
	switch s.Family {
	case FamilyCNN:
		var ops int64
		t, ch := w, in
		for l := 0; l < s.ConvLayers; l++ {
			outT := (t-int64(s.Kernel))/int64(s.Stride) + 1
			if outT < 1 {
				outT = 1
			}
			ops += outT * int64(s.Filters) * int64(s.Kernel) * ch
			t, ch = outT, int64(s.Filters)
			if s.Pool == "max" || s.Pool == "avg" {
				t = maxI64(1, t/2)
			}
		}
		ops += t * ch * int64(eeg.NumActions)
		return ops
	case FamilyLSTM:
		var ops int64
		width := in
		for l := 0; l < s.LSTMLayers; l++ {
			ops += w * 4 * int64(s.Hidden) * (width + int64(s.Hidden))
			width = int64(s.Hidden)
		}
		ops += int64(s.Hidden) * int64(eeg.NumActions)
		return ops
	case FamilyTransformer:
		d := int64(s.DModel)
		ff := int64(s.FFDim)
		var ops int64
		ops += w * in * d // input projection
		perLayer := 4*w*d*d + 2*w*w*d + 2*w*d*ff
		ops += int64(s.TFLayers) * perLayer
		ops += d * int64(eeg.NumActions)
		return ops
	case FamilyRF:
		// One comparison per level per tree.
		depth := int64(s.MaxDepth)
		if depth == 0 {
			depth = 24
		}
		return int64(s.Trees) * depth
	default:
		return 0
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
