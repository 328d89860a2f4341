package nn

import (
	"fmt"

	"cognitivearm/internal/tensor"
)

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
// GEMM's epilogue (tensor.Epilogue) at inference, skipping one full
// write-read pass over the activations. relu=false is the layer's plain
// inference forward (bias still fused). Outputs must be bitwise-identical to
// the unfused ForwardBatch-then-ReLU composition.
type epilogueFuser interface {
	forwardBatchFused(ws *tensor.Workspace, xs []*tensor.Matrix, relu bool) []*tensor.Matrix
}

// ForwardBatch runs B same-shape windows through every layer's
// ForwardBatch, returning one output per window in order. Dense, Conv1D and
// attention projections collapse their B small matmuls into one batch×feature
// GEMM; the LSTM steps all B windows together; row-wise layers process one
// stacked matrix. A window's result does not depend on its batch, bit for
// bit. Train mode takes exactly one window. See Layer for the contract.
func (n *Network) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	trainOnOne(xs, train)
	if len(xs) == 0 {
		return nil
	}
	sameShape(xs)
	return n.forwardFrom(ws, xs, 0, train)
}

// forwardFrom runs layers [first, len) of ForwardBatch over xs, the
// previous layer's outputs.
func (n *Network) forwardFrom(ws *tensor.Workspace, xs []*tensor.Matrix, first int, train bool) []*tensor.Matrix {
	for li := first; li < len(n.Layers); li++ {
		l := n.Layers[li]
		// At inference, Dense→ReLU and Conv1D→ReLU sequences collapse into one
		// GEMM with a bias+ReLU epilogue; the ReLU layer itself is skipped.
		// Training runs the ReLU, which saves its output for Backward.
		if ef, ok := l.(epilogueFuser); ok && !train && li+1 < len(n.Layers) {
			if _, nextIsReLU := n.Layers[li+1].(*ReLU); nextIsReLU {
				xs = ef.forwardBatchFused(ws, xs, true)
				li++
				continue
			}
		}
		xs = l.ForwardBatch(ws, xs, train)
	}
	return xs
}

// PredictBatch classifies B same-shape windows in one fused pass and returns
// one class index per window, identical to calling Predict on each. The
// labels are written into dst when it has capacity (pass a reused buffer for
// an allocation-free call); dst may be nil.
func (n *Network) PredictBatch(ws *tensor.Workspace, xs []*tensor.Matrix, dst []int) []int {
	return argmaxRows(n.ForwardBatch(ws, xs, false), dst)
}

// argmaxRows returns the class index of each output's single row, written
// into dst when it has capacity.
func argmaxRows(outs []*tensor.Matrix, dst []int) []int {
	if cap(dst) < len(outs) {
		dst = make([]int, len(outs))
	}
	dst = dst[:len(outs)]
	for i, out := range outs {
		dst[i] = tensor.Argmax(out.Row(0))
	}
	return dst
}
