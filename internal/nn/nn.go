// Package nn is the from-scratch deep-learning framework CognitiveArm's
// classifiers are built on. It provides the layers the paper's search space
// needs (Dense, Conv1D, pooling, LSTM, multi-head attention with LayerNorm,
// dropout), softmax cross-entropy, and the four optimizers of Table III
// (SGD, RMSProp, Adam, AdamW). Everything operates on float64 matrices from
// internal/tensor; training examples are processed one at a time with
// gradient accumulation across a mini-batch, which keeps every layer's code
// two-dimensional and auditable.
//
// # One forward
//
// Every layer has one forward, ForwardBatch, which runs B same-shape windows
// at once: Dense, Conv1D and the attention projections collapse their B
// per-window matmuls into single batch×feature GEMMs, and the LSTM steps all
// B recurrences together. Training runs it on one window in train mode;
// Network.Forward, Predict, Logits and Probs are one-window calls of it, and
// the serving hub (internal/serve) runs it on every ready session window of
// a shard tick, passing its per-shard workspace. Every temporary — and every
// train-mode cache Backward reads — is drawn from a caller-supplied
// tensor.Workspace, so a workspace reset once per tick (or once per training
// example) makes the forward pass allocation-free at steady state.
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

// matMul returns a·b in a fresh matrix, serially on the GEMM tile: the
// products of Backward. Weight gradients are added to Param.Grad after the
// product: accumulating inside it would change the rounding.
func matMul(a, b *tensor.Matrix) *tensor.Matrix {
	return tensor.GEMM(nil, tensor.New(a.Rows, b.Cols), a, b, tensor.Epilogue{})
}

// transpose returns mᵀ in a fresh matrix: the operand of a transposed
// product, such as xᵀ in dW = xᵀ·dY or Wᵀ in dX = dY·Wᵀ.
func transpose(m *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Layer is one differentiable stage. ForwardBatch consumes B same-shape
// windows and returns B outputs; Backward consumes dL/d(output) and returns
// dL/d(input), accumulating parameter gradients internally. The contract:
//   - Train mode runs on exactly one window (it panics otherwise) and saves
//     what Backward reads in the layer, so a Network must not be shared
//     across goroutines during training. The saved matrices come from ws:
//     Backward must run before ws's next Reset.
//   - Inference (train=false) never writes layer state: a trained layer may
//     serve concurrent ForwardBatch calls from many goroutines, which the
//     serving hub relies on to share one model across sessions — provided
//     each call uses its own Workspace. Workspaces are single-owner.
//   - Every temporary — GEMM destinations, stacked activations, output
//     views — is drawn from ws, so a caller that resets one workspace per
//     tick runs the whole forward pass without heap allocations at steady
//     state. Returned matrices may be views into one shared backing array
//     (tensor.SplitRowsWS) and are valid only until the workspace's next
//     Reset; callers must copy anything that outlives the cycle.
//   - A window's output does not depend on the other windows of its batch,
//     bit for bit.
//   - All windows in one call must share the same shape. Network.ForwardBatch
//     and the GEMM-backed layers (Dense, Conv1D, attention) panic on a mixed
//     batch; the other layers leave mixed shapes as the caller's problem.
type Layer interface {
	ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix
	Backward(gradOut *tensor.Matrix) *tensor.Matrix
	Params() []*Param
	Name() string
}

// trainOnOne panics on a train-mode call that is not exactly one window:
// what a layer saves for Backward is one window's.
func trainOnOne(xs []*tensor.Matrix, train bool) {
	if train && len(xs) != 1 {
		panic("nn: train mode runs on exactly one window")
	}
}

// Network is a simple sequential container.
type Network struct {
	Layers []Layer
}

// NewNetwork builds a sequential network.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// Forward runs one window through ForwardBatch. In train mode the layers
// save what Backward reads, drawn from ws: call Backward before ws.Reset.
func (n *Network) Forward(ws *tensor.Workspace, x *tensor.Matrix, train bool) *tensor.Matrix {
	xs := ws.Matrices(1)
	xs[0] = x
	return n.ForwardBatch(ws, xs, train)[0]
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
	return tensor.Argmax(n.Forward(tensor.NewWorkspace(), x, false).Row(0))
}

// Logits runs inference and returns a copy of the raw 1×K output. Like
// Predict and Probs it takes a fresh workspace, so a trained network stays
// shareable read-only across goroutines.
func (n *Network) Logits(x *tensor.Matrix) []float64 {
	return append([]float64(nil), n.Forward(tensor.NewWorkspace(), x, false).Row(0)...)
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
