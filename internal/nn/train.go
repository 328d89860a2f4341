package nn

import (
	"fmt"
	"math"

	"cognitivearm/internal/tensor"
)

// CrossEntropy computes softmax cross-entropy loss for a 1×K logit row
// against an integer label, returning the loss and dL/dlogits (1×K).
func CrossEntropy(logits *tensor.Matrix, label int) (float64, *tensor.Matrix) {
	if logits.Rows != 1 {
		panic("nn: CrossEntropy expects a single logit row")
	}
	k := logits.Cols
	if label < 0 || label >= k {
		panic(fmt.Sprintf("nn: label %d out of range [0,%d)", label, k))
	}
	probs := make([]float64, k)
	tensor.Softmax(probs, logits.Row(0))
	loss := -math.Log(math.Max(probs[label], 1e-15))
	grad := tensor.New(1, k)
	copy(grad.Data, probs)
	grad.Data[label] -= 1
	return loss, grad
}

// Example is one training instance: a T×C input and its class label.
type Example struct {
	X     *tensor.Matrix
	Label int
}

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	// Patience stops training after this many epochs without validation
	// improvement; 0 disables early stopping.
	Patience int
	// MaxGradNorm clips the global gradient norm per batch; 0 disables.
	MaxGradNorm float64
	// Seed drives shuffling.
	Seed uint64
	// Verbose emits per-epoch lines via Logf.
	Verbose bool
	Logf    func(format string, args ...any)
	// PostStep, when set, runs after every optimizer step — used e.g. to
	// re-apply pruning masks so fine-tuning preserves sparsity.
	PostStep func(*Network)
}

// History records per-epoch metrics for overfitting analysis (§III-D3).
type History struct {
	TrainLoss []float64
	ValLoss   []float64
	ValAcc    []float64
	// StoppedEarly reports whether patience triggered.
	StoppedEarly bool
}

// Fit trains the network with mini-batch gradient accumulation and optional
// early stopping on validation loss.
func Fit(net *Network, train, val []Example, cfg TrainConfig) History {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = NewAdam(1e-3)
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := tensor.NewRNG(cfg.Seed + 1)
	// One workspace holds an example's activations and the caches its
	// Backward reads; it is reset after each Backward.
	ws := tensor.NewWorkspace()
	var hist History
	bestVal := math.Inf(1)
	bad := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(len(train))
		var totalLoss float64
		for start := 0; start < len(perm); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(perm) {
				end = len(perm)
			}
			net.ZeroGrad()
			for _, idx := range perm[start:end] {
				ex := train[idx]
				out := net.Forward(ws, ex.X, true)
				loss, grad := CrossEntropy(out, ex.Label)
				totalLoss += loss
				net.Backward(grad)
				ws.Reset()
			}
			scaleGrads(net, 1/float64(end-start))
			if cfg.MaxGradNorm > 0 {
				clipGrads(net, cfg.MaxGradNorm)
			}
			cfg.Optimizer.Step(net.Params())
			if cfg.PostStep != nil {
				cfg.PostStep(net)
			}
		}
		trainLoss := totalLoss / float64(max(1, len(train)))
		valLoss, valAcc := Evaluate(net, val)
		hist.TrainLoss = append(hist.TrainLoss, trainLoss)
		hist.ValLoss = append(hist.ValLoss, valLoss)
		hist.ValAcc = append(hist.ValAcc, valAcc)
		if cfg.Verbose {
			logf("epoch %d: train_loss=%.4f val_loss=%.4f val_acc=%.3f", epoch, trainLoss, valLoss, valAcc)
		}
		if cfg.Patience > 0 {
			if valLoss < bestVal-1e-6 {
				bestVal = valLoss
				bad = 0
			} else {
				bad++
				if bad >= cfg.Patience {
					hist.StoppedEarly = true
					break
				}
			}
		}
	}
	return hist
}

// Evaluate returns mean loss and accuracy over the examples. An empty set
// yields (0, 0).
func Evaluate(net *Network, examples []Example) (loss, acc float64) {
	if len(examples) == 0 {
		return 0, 0
	}
	var correct int
	ws := tensor.NewWorkspace()
	for _, ex := range examples {
		ws.Reset()
		out := net.Forward(ws, ex.X, false)
		l, _ := CrossEntropy(out, ex.Label)
		loss += l
		if tensor.Argmax(out.Row(0)) == ex.Label {
			correct++
		}
	}
	return loss / float64(len(examples)), float64(correct) / float64(len(examples))
}

func scaleGrads(net *Network, s float64) {
	for _, p := range net.Params() {
		for i := range p.Grad.Data {
			p.Grad.Data[i] *= s
		}
	}
}

func clipGrads(net *Network, maxNorm float64) {
	var total float64
	for _, p := range net.Params() {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm <= maxNorm || norm == 0 {
		return
	}
	s := maxNorm / norm
	for _, p := range net.Params() {
		for i := range p.Grad.Data {
			p.Grad.Data[i] *= s
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
