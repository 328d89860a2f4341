package nn

import (
	"fmt"

	"cognitivearm/internal/tensor"
)

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

// ForwardBatch runs inference on B same-shape windows through every layer's
// batched path, returning one output per window in order. Dense, Conv1D and
// attention projections collapse their B small matmuls into one batch×feature
// GEMM; the LSTM steps all B windows together (one B×4H GEMM per timestep);
// row-wise layers process one stacked matrix. Results are bitwise identical
// to per-window Forward(x, false). See Layer for the contract.
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
		xs = l.ForwardBatch(ws, xs, false)
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
