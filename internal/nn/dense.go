package nn

import (
	"fmt"

	"cognitivearm/internal/tensor"
)

// Dense is a fully connected layer: y = x·W + b, applied row-wise, so it
// works both on 1×in classifier heads and T×in per-timestep projections.
type Dense struct {
	In, Out int
	Weight  *Param
	Bias    *Param
	lastX   *tensor.Matrix
}

// NewDense creates a Dense layer with Xavier-initialised weights.
func NewDense(in, out int, rng *tensor.RNG) *Dense {
	d := &Dense{In: in, Out: out, Weight: newParam("dense.W", in, out), Bias: newParam("dense.b", 1, out)}
	tensor.XavierInit(d.Weight.W, in, out, rng)
	return d
}

// ForwardBatch implements Layer: the B small matmuls fuse into a
// single (B·T)×In batch×feature GEMM, read from the windows in place, with
// the bias add folded into its epilogue. Train mode saves the input.
func (d *Dense) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	trainOnOne(xs, train)
	y := d.forwardBatchFused(ws, xs, false)
	if train {
		d.lastX = xs[0]
	}
	return y
}

// forwardBatchFused implements epilogueFuser: one GEMM whose epilogue applies
// the bias and, when a ReLU layer follows in the network, the clamp too —
// saving the separate write-read pass over the activations. Bitwise-identical
// to the unfused ForwardBatch + ReLU composition by the tensor.GEMM contract.
func (d *Dense) forwardBatchFused(ws *tensor.Workspace, xs []*tensor.Matrix, relu bool) []*tensor.Matrix {
	if len(xs) == 0 {
		return nil
	}
	if xs[0].Cols != d.In {
		panic(fmt.Sprintf("nn: Dense expects %d inputs, got %d", d.In, xs[0].Cols))
	}
	sameShape(xs)
	T := xs[0].Rows
	y := tensor.GEMMBlocks(ws, ws.Uninit(len(xs)*T, d.Out),
		tensor.RowBlocks{Blocks: xs, Rows: T, Cols: d.In, Stride: d.In},
		d.Weight.W, tensor.Epilogue{Bias: d.Bias.W.Data, ReLU: relu})
	return tensor.SplitRowsWS(ws, y, T)
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	// dW += xᵀ·dY, db += colsum(dY), dX = dY·Wᵀ
	tensor.Add(d.Weight.Grad, d.Weight.Grad, matMul(transpose(d.lastX), gradOut))
	sums := make([]float64, d.Out)
	tensor.ColSums(sums, gradOut)
	for j := range sums {
		d.Bias.Grad.Data[j] += sums[j]
	}
	return matMul(gradOut, transpose(d.Weight.W))
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("Dense(%d→%d)", d.In, d.Out) }

// ReLU is the rectified linear activation, with the GEMM epilogue's rule:
// v <= 0 → +0, so −0 becomes +0 and NaN passes through.
type ReLU struct{ lastY *tensor.Matrix }

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// ForwardBatch implements Layer: one clamp pass over a single
// stacked matrix, so the batch costs one scratch buffer instead of B clones.
// Train mode saves the output, which is Backward's mask.
func (r *ReLU) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	trainOnOne(xs, train)
	if len(xs) == 0 {
		return nil
	}
	y := tensor.StackWS(ws, xs)
	for i, v := range y.Data {
		if v <= 0 {
			y.Data[i] = 0
		}
	}
	if train {
		r.lastY = y
	}
	return tensor.SplitRowsWS(ws, y, xs[0].Rows)
}

// Backward implements Layer: the gradient passes where the output is
// positive. A NaN output passes none.
func (r *ReLU) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	g := gradOut.Clone()
	for i, y := range r.lastY.Data {
		if !(y > 0) {
			g.Data[i] = 0
		}
	}
	return g
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Name implements Layer.
func (r *ReLU) Name() string { return "ReLU" }

// Dropout zeroes activations with probability P during training and scales
// survivors by 1/(1−P) (inverted dropout), so inference needs no rescaling.
type Dropout struct {
	P    float64
	rng  *tensor.RNG
	mask []float64
}

// NewDropout creates a dropout layer with drop probability p.
func NewDropout(p float64, rng *tensor.RNG) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v out of [0,1)", p))
	}
	return &Dropout{P: p, rng: rng}
}

// ForwardBatch implements Layer. Inference-mode dropout is the identity,
// so the batch passes through untouched, and nothing is written to the
// layer: a trained network must be shareable read-only across goroutines.
// Train mode draws the window's mask in element order.
func (d *Dropout) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	trainOnOne(xs, train)
	if !train {
		return xs
	}
	d.mask = nil
	if d.P == 0 {
		return xs
	}
	x := xs[0]
	y := ws.Uninit(x.Rows, x.Cols)
	d.mask = ws.Uninit(x.Rows, x.Cols).Data
	keep := 1 - d.P
	scale := 1 / keep
	for i, v := range x.Data {
		if d.rng.Float64() < keep {
			d.mask[i] = scale
			y.Data[i] = v * scale
		} else {
			d.mask[i] = 0
			y.Data[i] = 0
		}
	}
	out := ws.Matrices(1)
	out[0] = y
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if d.mask == nil {
		return gradOut
	}
	g := gradOut.Clone()
	for i := range g.Data {
		g.Data[i] *= d.mask[i]
	}
	return g
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Name implements Layer.
func (d *Dropout) Name() string { return fmt.Sprintf("Dropout(%.2g)", d.P) }

// MeanPool averages over time (rows), producing a 1×C summary — the readout
// used by the transformer classifier.
type MeanPool struct{ rows int }

// NewMeanPool returns a temporal mean-pooling layer.
func NewMeanPool() *MeanPool { return &MeanPool{} }

// ForwardBatch implements Layer: all B pooled rows land in one B×C
// matrix handed out as views.
func (m *MeanPool) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	trainOnOne(xs, train)
	if len(xs) == 0 {
		return nil
	}
	if train {
		m.rows = xs[0].Rows
	}
	out := ws.Uninit(len(xs), xs[0].Cols)
	for i, x := range xs {
		row := out.Row(i)
		tensor.ColSums(row, x)
		inv := 1 / float64(x.Rows)
		for j := range row {
			row[j] *= inv
		}
	}
	return tensor.SplitRowsWS(ws, out, 1)
}

// Backward implements Layer.
func (m *MeanPool) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	g := tensor.New(m.rows, gradOut.Cols)
	inv := 1 / float64(m.rows)
	for t := 0; t < m.rows; t++ {
		row := g.Row(t)
		for j := range row {
			row[j] = gradOut.Data[j] * inv
		}
	}
	return g
}

// Params implements Layer.
func (m *MeanPool) Params() []*Param { return nil }

// Name implements Layer.
func (m *MeanPool) Name() string { return "MeanPool" }
