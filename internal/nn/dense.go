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

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense expects %d inputs, got %d", d.In, x.Cols))
	}
	if train {
		d.lastX = x
	}
	return matMul(x, d.Weight.W, d.Bias.W.Data)
}

// ForwardBatch implements Layer: the B small matmuls fuse into a
// single (B·T)×In batch×feature GEMM, read from the windows in place, with
// the bias add folded into its epilogue.
func (d *Dense) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
	return d.forwardBatchFused(ws, xs, false)
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
	tensor.Add(d.Weight.Grad, d.Weight.Grad, matMul(transpose(d.lastX), gradOut, nil))
	sums := make([]float64, d.Out)
	tensor.ColSums(sums, gradOut)
	for j := range sums {
		d.Bias.Grad.Data[j] += sums[j]
	}
	return matMul(gradOut, transpose(d.Weight.W), nil)
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("Dense(%d→%d)", d.In, d.Out) }

// ReLU is the rectified linear activation.
type ReLU struct{ mask []bool }

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	y := x.Clone()
	if !train {
		for i, v := range y.Data {
			if v <= 0 {
				y.Data[i] = 0
			}
		}
		return y
	}
	if cap(r.mask) < len(y.Data) {
		r.mask = make([]bool, len(y.Data))
	}
	r.mask = r.mask[:len(y.Data)]
	for i, v := range y.Data {
		if v > 0 {
			r.mask[i] = true
		} else {
			r.mask[i] = false
			y.Data[i] = 0
		}
	}
	return y
}

// ForwardBatch implements Layer: one clamp pass over a single
// stacked matrix, so the batch costs one scratch buffer instead of B clones.
func (r *ReLU) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
	if len(xs) == 0 {
		return nil
	}
	y := tensor.StackWS(ws, xs)
	for i, v := range y.Data {
		if v <= 0 {
			y.Data[i] = 0
		}
	}
	return tensor.SplitRowsWS(ws, y, xs[0].Rows)
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	g := gradOut.Clone()
	for i := range g.Data {
		if !r.mask[i] {
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

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train || d.P == 0 {
		// No receiver writes on the inference path: a trained network must be
		// shareable read-only across goroutines.
		return x
	}
	y := x.Clone()
	if cap(d.mask) < len(y.Data) {
		d.mask = make([]float64, len(y.Data))
	}
	d.mask = d.mask[:len(y.Data)]
	keep := 1 - d.P
	scale := 1 / keep
	for i := range y.Data {
		if d.rng.Float64() < keep {
			d.mask[i] = scale
			y.Data[i] *= scale
		} else {
			d.mask[i] = 0
			y.Data[i] = 0
		}
	}
	return y
}

// ForwardBatch implements Layer. Inference-mode dropout is the
// identity, so the batch passes through untouched.
func (d *Dropout) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
	return xs
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

// Flatten reshapes T×C into 1×(T·C) for the transition from temporal layers
// to a classifier head.
type Flatten struct{ rows, cols int }

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		f.rows, f.cols = x.Rows, x.Cols
	}
	return tensor.FromSlice(1, x.Rows*x.Cols, append([]float64(nil), x.Data...))
}

// ForwardBatch implements Layer. Row-major windows flatten by
// reinterpretation: one stacked copy serves all B flattened rows as views.
func (f *Flatten) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
	if len(xs) == 0 {
		return nil
	}
	y := tensor.StackWS(ws, xs)
	flat := ws.View(len(xs), xs[0].Rows*xs[0].Cols, y.Data)
	return tensor.SplitRowsWS(ws, flat, 1)
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	return tensor.FromSlice(f.rows, f.cols, append([]float64(nil), gradOut.Data...))
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Name implements Layer.
func (f *Flatten) Name() string { return "Flatten" }

// MeanPool averages over time (rows), producing a 1×C summary — the readout
// used by the transformer classifier.
type MeanPool struct{ rows int }

// NewMeanPool returns a temporal mean-pooling layer.
func NewMeanPool() *MeanPool { return &MeanPool{} }

// Forward implements Layer.
func (m *MeanPool) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		m.rows = x.Rows
	}
	out := tensor.New(1, x.Cols)
	tensor.ColSums(out.Data, x)
	tensor.Scale(out, 1/float64(x.Rows))
	return out
}

// ForwardBatch implements Layer: all B pooled rows land in one B×C
// matrix handed out as views.
func (m *MeanPool) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
	if len(xs) == 0 {
		return nil
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
