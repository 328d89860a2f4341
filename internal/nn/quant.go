package nn

import (
	"errors"
	"fmt"

	"cognitivearm/internal/tensor"
)

// ErrQuantUnsupported marks a network whose architecture has no int8 path
// (LSTM and attention stacks keep their f64 kernels). Callers treat it as
// "serve the f64 model" rather than a hard failure.
var ErrQuantUnsupported = errors.New("nn: network has no quantized form")

// QDense is the int8 inference twin of Dense: weights quantized once into a
// transposed tensor.QMatrix, activations quantized per row on the fly, int32
// accumulation, f64 out (see tensor.MatMulQ). Inference-only — Backward
// panics — and approximate: serving gates it behind an agreement check
// against the exact f64 network.
type QDense struct {
	src *Dense
	w   *tensor.QMatrix
}

// QuantizeDense quantizes a trained Dense layer.
func QuantizeDense(d *Dense) *QDense {
	return &QDense{src: d, w: tensor.QuantizeWeights(d.Weight.W)}
}

// Forward implements Layer (inference only): a batch of one on a fresh
// workspace.
func (q *QDense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	batchInferenceOnly(train)
	return q.forwardBatchFused(tensor.NewWorkspace(), []*tensor.Matrix{x}, false)[0]
}

// ForwardBatch implements Layer.
//
//cogarm:zeroalloc
func (q *QDense) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
	return q.forwardBatchFused(ws, xs, false)
}

// forwardBatchFused implements epilogueFuser over the int8 kernel.
//
//cogarm:zeroalloc
func (q *QDense) forwardBatchFused(ws *tensor.Workspace, xs []*tensor.Matrix, relu bool) []*tensor.Matrix {
	if len(xs) == 0 {
		return nil
	}
	if xs[0].Cols != q.src.In {
		panic(fmt.Sprintf("nn: QDense expects %d inputs, got %d", q.src.In, xs[0].Cols))
	}
	x := tensor.StackWS(ws, xs)
	y := tensor.MatMulQ(ws, ws.Uninit(x.Rows, q.src.Out), x, q.w,
		tensor.Epilogue{Bias: q.src.Bias.W.Data, ReLU: relu})
	return tensor.SplitRowsWS(ws, y, xs[0].Rows)
}

// Backward implements Layer: quantized layers are inference-only.
func (q *QDense) Backward(*tensor.Matrix) *tensor.Matrix {
	panic("nn: QDense is inference-only")
}

// Params implements Layer, delegating to the source layer so NumParams and
// checkpointing stay defined by the exact f64 weights.
func (q *QDense) Params() []*Param { return q.src.Params() }

// Name implements Layer.
func (q *QDense) Name() string { return fmt.Sprintf("QDense(%d→%d,int8)", q.src.In, q.src.Out) }

// QConv1D is the int8 inference twin of Conv1D: the same im2col unfold feeds
// tensor.MatMulQ against the quantized kernel weights.
type QConv1D struct {
	src *Conv1D
	w   *tensor.QMatrix
}

// QuantizeConv1D quantizes a trained Conv1D layer.
func QuantizeConv1D(c *Conv1D) *QConv1D {
	return &QConv1D{src: c, w: tensor.QuantizeWeights(c.Weight.W)}
}

// Forward implements Layer (inference only): a batch of one on a fresh
// workspace.
func (q *QConv1D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	batchInferenceOnly(train)
	return q.forwardBatchFused(tensor.NewWorkspace(), []*tensor.Matrix{x}, false)[0]
}

// ForwardBatch implements Layer.
//
//cogarm:zeroalloc
func (q *QConv1D) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
	return q.forwardBatchFused(ws, xs, false)
}

// forwardBatchFused implements epilogueFuser over the int8 kernel.
//
//cogarm:zeroalloc
func (q *QConv1D) forwardBatchFused(ws *tensor.Workspace, xs []*tensor.Matrix, relu bool) []*tensor.Matrix {
	if len(xs) == 0 {
		return nil
	}
	c := q.src
	x0 := xs[0]
	if x0.Cols != c.InChannels {
		panic(fmt.Sprintf("nn: QConv1D expects %d channels, got %d", c.InChannels, x0.Cols))
	}
	outT := c.OutLen(x0.Rows)
	if outT <= 0 {
		panic(fmt.Sprintf("nn: QConv1D input length %d shorter than kernel %d", x0.Rows, c.Kernel))
	}
	col := c.im2colWS(ws, xs, outT)
	y := tensor.MatMulQ(ws, ws.Uninit(col.Rows, c.OutChannels), col, q.w,
		tensor.Epilogue{Bias: c.Bias.W.Data, ReLU: relu})
	return tensor.SplitRowsWS(ws, y, outT)
}

// im2colWS unfolds the batch into one (B·T')×(K·Cin) matrix drawn from ws.
// Only the int8 kernel still needs it: tensor.MatMulQ takes a matrix, while
// the f64 GEMM reads the windows in place.
//
//cogarm:zeroalloc
func (c *Conv1D) im2colWS(ws *tensor.Workspace, xs []*tensor.Matrix, outT int) *tensor.Matrix {
	col := ws.Uninit(len(xs)*outT, c.Kernel*c.InChannels)
	for i, x := range xs {
		for t := 0; t < outT; t++ {
			dst := col.Row(i*outT + t)
			src := t * c.Stride
			for k := 0; k < c.Kernel; k++ {
				copy(dst[k*c.InChannels:(k+1)*c.InChannels], x.Row(src+k))
			}
		}
	}
	return col
}

// Backward implements Layer: quantized layers are inference-only.
func (q *QConv1D) Backward(*tensor.Matrix) *tensor.Matrix {
	panic("nn: QConv1D is inference-only")
}

// Params implements Layer, delegating to the source layer.
func (q *QConv1D) Params() []*Param { return q.src.Params() }

// Name implements Layer.
func (q *QConv1D) Name() string {
	return fmt.Sprintf("QConv1D(%d→%d,k%d,s%d,int8)", q.src.InChannels, q.src.OutChannels, q.src.Kernel, q.src.Stride)
}

// Quantize returns an inference-only int8 twin of the network: Dense and
// Conv1D layers swap for their quantized forms, stateless layers (ReLU,
// Dropout, pooling, Flatten) are shared, and anything with an f64-only kernel
// (LSTM, attention, LayerNorm) yields ErrQuantUnsupported. The original
// network is untouched and remains the exact path for checkpoints and
// replication.
func (n *Network) Quantize() (*Network, error) {
	layers := make([]Layer, 0, len(n.Layers))
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Dense:
			layers = append(layers, QuantizeDense(v))
		case *Conv1D:
			layers = append(layers, QuantizeConv1D(v))
		case *ReLU, *Dropout, *Flatten, *MeanPool, *Pool1D, *LastStep:
			layers = append(layers, l)
		default:
			return nil, fmt.Errorf("%w: layer %s", ErrQuantUnsupported, l.Name())
		}
	}
	return NewNetwork(layers...), nil
}
