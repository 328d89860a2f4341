// Package nn is the from-scratch deep-learning framework CognitiveArm's
// classifiers are built on. It provides the layers the paper's search space
// needs (Dense, Conv1D, pooling, LSTM, multi-head attention with LayerNorm,
// dropout), softmax cross-entropy, and the four optimizers of Table III
// (SGD, RMSProp, Adam, AdamW). Everything operates on float64 matrices from
// internal/tensor; training examples are processed one at a time with
// gradient accumulation across a mini-batch, which keeps every layer's code
// two-dimensional and auditable.
//
// # Batched inference
//
// Inference additionally has a fused batched path: Network.ForwardBatch and
// Network.PredictBatch run B same-shape windows through each layer's
// ForwardBatch kernel — every Layer has one — collapsing per-window matmuls
// (Dense, Conv1D, attention projections) into single batch×feature GEMMs and
// stepping all B LSTM recurrences together. The path is inference-only
// (train must be false; no layer state is written, so batched calls are safe
// concurrently with each other and with per-window Predict on a shared
// trained network) and returns results bitwise identical to per-window
// Forward. Every temporary is drawn from a caller-supplied tensor.Workspace,
// which is required: reset once per serving tick, the whole forward pass is
// allocation-free at steady state.
// The serving hub (internal/serve) is the main consumer: one shard tick
// coalesces every ready session window into one ForwardBatch per shared
// model, passing its per-shard workspace.
package nn

import (
	"fmt"

	"cognitivearm/internal/tensor"
)

// Param is one learnable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Matrix
	Grad *tensor.Matrix
}

// newParam allocates a parameter and its gradient of the same shape.
func newParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), Grad: tensor.New(rows, cols)}
}

// Size returns the number of scalar weights.
func (p *Param) Size() int { return len(p.W.Data) }

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one differentiable stage. Forward consumes the previous
// activation; Backward consumes dL/d(output) and returns dL/d(input),
// accumulating parameter gradients internally. Layers are stateful between
// Forward(train=true) and Backward (they cache what they need), so a Network
// must not be shared across goroutines during training. Forward with
// train=false never writes layer state: a trained Network may serve
// concurrent Predict/Probs calls from many goroutines, which the serving hub
// (internal/serve) relies on to share one model across sessions.
//
// ForwardBatch is the fused batched-inference path: it consumes B same-shape
// windows and returns B outputs, matching B independent Forward(x, false)
// calls element for element. Every temporary — GEMM destinations, stacked
// activations, output views — is drawn from ws, so a caller that resets one
// workspace per tick runs the whole forward pass without heap allocations at
// steady state. Its contract:
//   - Inference only: train must be false. The batched kernels write no layer
//     state (there is nothing for Backward to consume), so implementations
//     panic on train=true rather than silently corrupting training caches.
//   - Goroutine safety mirrors Forward(x, false): a trained layer may serve
//     concurrent ForwardBatch / Forward calls from many goroutines because
//     neither path writes the receiver — provided each call uses its own
//     Workspace. Workspaces are single-owner and must not be shared across
//     concurrent calls.
//   - Returned matrices may be views into one shared backing array
//     (tensor.SplitRowsWS) and are valid only until the workspace's next
//     Reset; callers must copy anything that outlives the cycle.
//   - All windows in one call must share the same shape. Network.ForwardBatch
//     and the GEMM-backed layers (Dense, Conv1D, attention) panic on a mixed
//     batch; the other layers leave mixed shapes as the caller's problem.
type Layer interface {
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	//cogarm:zeroalloc
	ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix
	Backward(gradOut *tensor.Matrix) *tensor.Matrix
	Params() []*Param
	Name() string
}

// Network is a simple sequential container.
type Network struct {
	Layers []Layer
}

// NewNetwork builds a sequential network.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// Forward runs all layers.
func (n *Network) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the loss gradient through all layers in reverse.
func (n *Network) Backward(grad *tensor.Matrix) *tensor.Matrix {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return grad
}

// Params collects every learnable parameter.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// NumParams returns the total scalar parameter count — the paper's model-size
// objective P(m) in the evolutionary search.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Size()
	}
	return total
}

// ZeroGrad clears all gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// Predict runs inference and returns the class index of the single output
// row. The final layer must produce a 1×K logit row.
func (n *Network) Predict(x *tensor.Matrix) int {
	out := n.Forward(x, false)
	return tensor.Argmax(out.Row(0))
}

// Logits runs inference and returns a copy of the raw 1×K output.
func (n *Network) Logits(x *tensor.Matrix) []float64 {
	out := n.Forward(x, false)
	return append([]float64(nil), out.Row(0)...)
}

// Probs runs inference and returns softmax class probabilities.
func (n *Network) Probs(x *tensor.Matrix) []float64 {
	logits := n.Logits(x)
	probs := make([]float64, len(logits))
	tensor.Softmax(probs, logits)
	return probs
}

// String summarises the architecture.
func (n *Network) String() string {
	s := "Network["
	for i, l := range n.Layers {
		if i > 0 {
			s += " → "
		}
		s += l.Name()
	}
	return s + fmt.Sprintf("] (%d params)", n.NumParams())
}
