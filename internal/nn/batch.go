package nn

import (
	"fmt"

	"cognitivearm/internal/tensor"
)

// BatchForwarder is the optional fused batched-inference extension of Layer.
// ForwardBatch consumes B same-shape windows and returns B outputs, exactly
// matching B independent Forward(x, false) calls element-for-element. Every
// temporary — GEMM destinations, stacked activations, output views — is drawn from
// ws, so a caller that resets one workspace per tick runs the whole forward
// pass without heap allocations at steady state. ws may be nil, selecting
// plain heap allocation (the unpooled path, bitwise-identical by contract).
//
// Contract:
//   - Inference only: train must be false. The batched kernels write no layer
//     state (there is nothing for Backward to consume), so implementations
//     panic on train=true rather than silently corrupting training caches.
//   - Goroutine safety mirrors Forward(x, false): a trained layer may serve
//     concurrent ForwardBatch / Forward calls from many goroutines because
//     neither path writes the receiver — provided each call uses its own
//     Workspace (or nil). Workspaces are single-owner and must not be shared
//     across concurrent calls.
//   - Returned matrices may be views into one shared backing array
//     (tensor.SplitRowsWS) and, with a non-nil ws, are valid only until the
//     workspace's next Reset; callers must copy anything that outlives the
//     cycle.
//   - All windows in one call must share the same shape. Network.ForwardBatch
//     and the GEMM-backed layers (Dense, Conv1D, attention) panic on a mixed
//     batch; the other layers leave mixed shapes as the caller's problem.
type BatchForwarder interface {
	//cogarm:zeroalloc
	ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix
}

// batchInferenceOnly is the shared train-guard for every fused kernel.
func batchInferenceOnly(train bool) {
	if train {
		panic("nn: ForwardBatch is inference-only (train must be false)")
	}
}

// sameShape panics unless every window of a batch has the shape of the first.
// The GEMM-backed kernels read all B windows in place through one
// tensor.RowBlocks view sized from xs[0], so a longer window would be silently
// truncated and a shorter one refused with a less useful message.
func sameShape(xs []*tensor.Matrix) {
	r, c := xs[0].Rows, xs[0].Cols
	for i, x := range xs[1:] {
		if x.Rows != r || x.Cols != c {
			panic(fmt.Sprintf("nn: ForwardBatch window %d shape mismatch %dx%d vs %dx%d", i+1, x.Rows, x.Cols, r, c))
		}
	}
}

// epilogueFuser is the internal extension a GEMM-backed layer implements so
// Network.ForwardBatch can fold a directly following ReLU layer into the
// GEMM's epilogue (tensor.Epilogue), skipping one full write-read pass over
// the activations. relu=false is the layer's plain batched forward (bias
// still fused). Outputs must be bitwise-identical to the unfused
// ForwardBatch-then-ReLU composition.
type epilogueFuser interface {
	//cogarm:zeroalloc
	forwardBatchFused(ws *tensor.Workspace, xs []*tensor.Matrix, relu bool) []*tensor.Matrix
}

// forwardBatch routes one layer: through its fused kernel when it implements
// BatchForwarder, else through the generic per-window fallback. The fallback
// keeps ForwardBatch total over arbitrary Layer implementations (external
// layers, future additions) at per-window cost.
func forwardBatch(l Layer, ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	if bf, ok := l.(BatchForwarder); ok {
		return bf.ForwardBatch(ws, xs, train)
	}
	batchInferenceOnly(train)
	out := ws.Matrices(len(xs))
	for i, x := range xs {
		//cogarm:allow zeroalloc -- generic per-window fallback for layers outside the fused set; every built-in layer implements BatchForwarder
		out[i] = l.Forward(x, false)
	}
	return out
}

// ForwardBatch runs inference on B same-shape windows through every layer's
// batched path, returning one output per window in order. Dense, Conv1D and
// attention projections collapse their B small matmuls into one batch×feature
// GEMM; the LSTM steps all B windows together (one B×4H GEMM per timestep);
// row-wise layers process one stacked matrix. Results are bitwise identical
// to per-window Forward(x, false), with or without a workspace. See
// BatchForwarder for the contract (ws may be nil = unpooled).
//
//cogarm:zeroalloc
func (n *Network) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
	if len(xs) == 0 {
		return nil
	}
	sameShape(xs)
	for li := 0; li < len(n.Layers); li++ {
		l := n.Layers[li]
		// Dense→ReLU and Conv1D→ReLU sequences collapse into one GEMM with a
		// bias+ReLU epilogue; the ReLU layer itself is skipped.
		if ef, ok := l.(epilogueFuser); ok && li+1 < len(n.Layers) {
			if _, nextIsReLU := n.Layers[li+1].(*ReLU); nextIsReLU {
				xs = ef.forwardBatchFused(ws, xs, true)
				li++
				continue
			}
		}
		xs = forwardBatch(l, ws, xs, false)
	}
	return xs
}

// PredictBatch classifies B same-shape windows in one fused pass and returns
// one class index per window, identical to calling Predict on each. The
// labels are written into dst when it has capacity (pass a reused buffer for
// an allocation-free call); dst may be nil.
//
//cogarm:zeroalloc
func (n *Network) PredictBatch(ws *tensor.Workspace, xs []*tensor.Matrix, dst []int) []int {
	outs := n.ForwardBatch(ws, xs, false)
	if cap(dst) < len(outs) {
		//cogarm:allow zeroalloc -- label-buffer warm-up; a reused dst never grows past its high-water mark
		dst = make([]int, len(outs))
	}
	dst = dst[:len(outs)]
	for i, out := range outs {
		dst[i] = tensor.Argmax(out.Row(0))
	}
	return dst
}
