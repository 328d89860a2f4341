package nn

import (
	"fmt"
	"math"

	"cognitivearm/internal/tensor"
)

// LayerNorm normalises each row to zero mean / unit variance and applies a
// learned affine transform, as used around every transformer sub-block.
type LayerNorm struct {
	Dim   int
	Gamma *Param
	Beta  *Param
	Eps   float64

	lastNorm *tensor.Matrix // cached normalised values x̂
	invStd   []float64
}

// NewLayerNorm creates the layer with γ=1, β=0.
func NewLayerNorm(dim int) *LayerNorm {
	ln := &LayerNorm{Dim: dim, Gamma: newParam("ln.g", 1, dim), Beta: newParam("ln.b", 1, dim), Eps: 1e-5}
	ln.Gamma.W.Fill(1)
	return ln
}

// ForwardBatch implements Layer: row-wise normalisation writes all
// B windows into one (B·T)×D output, one scratch buffer for the batch.
// Train mode saves x̂ and 1/σ for Backward.
func (ln *LayerNorm) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	trainOnOne(xs, train)
	if len(xs) == 0 {
		return nil
	}
	if xs[0].Cols != ln.Dim {
		panic(fmt.Sprintf("nn: LayerNorm expects dim %d, got %d", ln.Dim, xs[0].Cols))
	}
	T := xs[0].Rows
	y := ws.Uninit(len(xs)*T, ln.Dim)
	if train {
		ln.lastNorm, ln.invStd = ws.Uninit(T, ln.Dim), ws.Uninit(1, T).Data
	}
	for i, x := range xs {
		for t := 0; t < T; t++ {
			row := x.Row(t)
			mu := tensor.Mean(row)
			var v float64
			for _, xv := range row {
				d := xv - mu
				v += d * d
			}
			v /= float64(len(row))
			inv := 1 / math.Sqrt(v+ln.Eps)
			yrow := y.Row(i*T + t)
			for j, xv := range row {
				yrow[j] = (xv-mu)*inv*ln.Gamma.W.Data[j] + ln.Beta.W.Data[j]
			}
			if train {
				ln.invStd[t] = inv
				for j, xv := range row {
					ln.lastNorm.Data[t*ln.Dim+j] = (xv - mu) * inv
				}
			}
		}
	}
	return tensor.SplitRowsWS(ws, y, T)
}

// Backward implements Layer.
func (ln *LayerNorm) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	dx := tensor.New(gradOut.Rows, gradOut.Cols)
	n := float64(ln.Dim)
	for i := 0; i < gradOut.Rows; i++ {
		g := gradOut.Row(i)
		xh := ln.lastNorm.Row(i)
		// parameter grads
		for j := range g {
			ln.Gamma.Grad.Data[j] += g[j] * xh[j]
			ln.Beta.Grad.Data[j] += g[j]
		}
		// dx̂ = g·γ ; dx = invStd/n · (n·dx̂ − Σdx̂ − x̂·Σ(dx̂⊙x̂))
		var sumD, sumDX float64
		dxh := make([]float64, ln.Dim)
		for j := range g {
			dxh[j] = g[j] * ln.Gamma.W.Data[j]
			sumD += dxh[j]
			sumDX += dxh[j] * xh[j]
		}
		inv := ln.invStd[i]
		drow := dx.Row(i)
		for j := range drow {
			drow[j] = inv / n * (n*dxh[j] - sumD - xh[j]*sumDX)
		}
	}
	return dx
}

// Params implements Layer.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }

// Name implements Layer.
func (ln *LayerNorm) Name() string { return fmt.Sprintf("LayerNorm(%d)", ln.Dim) }

// PositionalEncoding adds the fixed sinusoidal position signal of the
// original transformer to a T×D sequence.
type PositionalEncoding struct{ Dim int }

// NewPositionalEncoding creates the layer.
func NewPositionalEncoding(dim int) *PositionalEncoding { return &PositionalEncoding{Dim: dim} }

// ForwardBatch implements Layer: the sinusoid table depends only on
// the window length, so it is materialised once and added to every window:
// B−1 fewer trips through math.Sin/Cos/Pow than one window at a time.
func (pe *PositionalEncoding) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	trainOnOne(xs, train)
	if len(xs) == 0 {
		return nil
	}
	T := xs[0].Rows
	enc := ws.Uninit(T, pe.Dim)
	for t := 0; t < T; t++ {
		row := enc.Row(t)
		for j := 0; j < pe.Dim; j += 2 {
			angle := float64(t) / math.Pow(10000, float64(j)/float64(pe.Dim))
			row[j] = math.Sin(angle)
			if j+1 < pe.Dim {
				row[j+1] = math.Cos(angle)
			}
		}
	}
	y := ws.Uninit(len(xs)*T, xs[0].Cols)
	for i, x := range xs {
		for t := 0; t < T; t++ {
			xrow, erow, yrow := x.Row(t), enc.Row(t), y.Row(i*T+t)
			copy(yrow, xrow)
			for j := range erow {
				yrow[j] += erow[j]
			}
		}
	}
	return tensor.SplitRowsWS(ws, y, T)
}

// Backward implements Layer. The encoding is additive, so gradients pass
// through unchanged.
func (pe *PositionalEncoding) Backward(gradOut *tensor.Matrix) *tensor.Matrix { return gradOut }

// Params implements Layer.
func (pe *PositionalEncoding) Params() []*Param { return nil }

// Name implements Layer.
func (pe *PositionalEncoding) Name() string { return "PosEnc" }

// MultiHeadAttention is self-attention over a T×D sequence with H heads of
// width D/H, including the output projection.
type MultiHeadAttention struct {
	Dim, Heads     int
	Wq, Wk, Wv, Wo *Param

	lastX   *tensor.Matrix
	q, k, v *tensor.Matrix
	attn    []*tensor.Matrix // per-head T×T softmax weights
	concat  *tensor.Matrix
}

// NewMultiHeadAttention creates the block; dim must divide evenly by heads.
func NewMultiHeadAttention(dim, heads int, rng *tensor.RNG) *MultiHeadAttention {
	if heads < 1 || dim%heads != 0 {
		panic(fmt.Sprintf("nn: attention dim %d not divisible by heads %d", dim, heads))
	}
	m := &MultiHeadAttention{
		Dim: dim, Heads: heads,
		Wq: newParam("mha.Wq", dim, dim),
		Wk: newParam("mha.Wk", dim, dim),
		Wv: newParam("mha.Wv", dim, dim),
		Wo: newParam("mha.Wo", dim, dim),
	}
	for _, p := range []*Param{m.Wq, m.Wk, m.Wv, m.Wo} {
		tensor.XavierInit(p.W, dim, dim, rng)
	}
	return m
}

// headView returns the T×dk sub-matrix of m for head h as a copy.
func headView(m *tensor.Matrix, h, dk int) *tensor.Matrix {
	out := tensor.New(m.Rows, dk)
	headCopy(out, m, h, dk)
	return out
}

// headCopy extracts the T×dk sub-matrix of m for head h into dst.
func headCopy(dst, m *tensor.Matrix, h, dk int) {
	for t := 0; t < m.Rows; t++ {
		copy(dst.Row(t), m.Row(t)[h*dk:(h+1)*dk])
	}
}

// headCopyT extracts head h of m transposed into dst (dk×T): the right
// operand of a product with the head's transpose, such as q·kᵀ.
func headCopyT(dst, m *tensor.Matrix, h, dk int) {
	for t := 0; t < m.Rows; t++ {
		for c, v := range m.Row(t)[h*dk : (h+1)*dk] {
			dst.Data[c*m.Rows+t] = v
		}
	}
}

// headAdd accumulates src (T×dk) into dst's head-h columns.
func headAdd(dst *tensor.Matrix, src *tensor.Matrix, h, dk int) {
	for t := 0; t < src.Rows; t++ {
		drow := dst.Row(t)[h*dk : (h+1)*dk]
		srow := src.Row(t)
		for j := range drow {
			drow[j] += srow[j]
		}
	}
}

// ForwardBatch implements Layer: the Q/K/V input projections and the
// output projection each run as one (B·T)×D GEMM over the whole batch — the
// inputs read from the windows in place, 4 GEMMs total instead of 4·B — while
// the T×T attention itself stays per-window (scores never mix windows).
// Train mode saves the input, Q, K, V, each head's softmax weights and the
// concatenated heads for Backward.
func (m *MultiHeadAttention) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	trainOnOne(xs, train)
	B := len(xs)
	if B == 0 {
		return nil
	}
	if xs[0].Cols != m.Dim {
		panic(fmt.Sprintf("nn: attention expects dim %d, got %d", m.Dim, xs[0].Cols))
	}
	sameShape(xs)
	T := xs[0].Rows
	x := tensor.RowBlocks{Blocks: xs, Rows: T, Cols: m.Dim, Stride: m.Dim}
	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	proj := func(w *Param) []*tensor.Matrix {
		return tensor.SplitRowsWS(ws, tensor.GEMMBlocks(ws, ws.Uninit(B*T, m.Dim), x, w.W, tensor.Epilogue{}), T)
	}
	qs, ks, vs := proj(m.Wq), proj(m.Wk), proj(m.Wv)
	concat := ws.Uninit(B*T, m.Dim)
	// One set of per-head scratch, reused across every (window, head) pair —
	// shapes are loop-invariant, so the workspace footprint stays one head's
	// worth instead of B·H of them.
	qh, khT, vh := ws.Uninit(T, dk), ws.Uninit(dk, T), ws.Uninit(T, dk)
	scores := ws.Uninit(T, T)
	oh := ws.Uninit(T, dk)
	if train {
		m.lastX, m.q, m.k, m.v, m.concat = xs[0], qs[0], ks[0], vs[0], concat
		m.attn = ws.Matrices(m.Heads)
	}
	for i := 0; i < B; i++ {
		for h := 0; h < m.Heads; h++ {
			if train {
				scores = ws.Uninit(T, T)
				m.attn[h] = scores
			}
			headCopy(qh, qs[i], h, dk)
			headCopyT(khT, ks[i], h, dk)
			headCopy(vh, vs[i], h, dk)
			tensor.GEMM(ws, scores, qh, khT, tensor.Epilogue{})
			tensor.Scale(scores, scale)
			tensor.SoftmaxRows(scores)
			tensor.GEMM(ws, oh, scores, vh, tensor.Epilogue{})
			for t := 0; t < T; t++ {
				copy(concat.Row(i*T + t)[h*dk:(h+1)*dk], oh.Row(t))
			}
		}
	}
	return tensor.SplitRowsWS(ws, tensor.GEMM(ws, ws.Uninit(B*T, m.Dim), concat, m.Wo.W, tensor.Epilogue{}), T)
}

// Backward implements Layer.
func (m *MultiHeadAttention) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	// Output projection.
	tensor.Add(m.Wo.Grad, m.Wo.Grad, matMul(transpose(m.concat), gradOut))
	dConcat := matMul(gradOut, transpose(m.Wo.W))

	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	dq := tensor.New(m.q.Rows, m.Dim)
	dkM := tensor.New(m.k.Rows, m.Dim)
	dv := tensor.New(m.v.Rows, m.Dim)
	for h := 0; h < m.Heads; h++ {
		dOh := headView(dConcat, h, dk)
		A := m.attn[h]
		// dA = dO·Vᵀ ; dV = Aᵀ·dO
		dA := matMul(dOh, transpose(headView(m.v, h, dk)))
		dVh := matMul(transpose(A), dOh)
		// softmax backward per row: dS = A ⊙ (dA − Σ(dA⊙A))
		dS := tensor.New(A.Rows, A.Cols)
		for i := 0; i < A.Rows; i++ {
			arow, darow, dsrow := A.Row(i), dA.Row(i), dS.Row(i)
			var dot float64
			for j := range arow {
				dot += darow[j] * arow[j]
			}
			for j := range arow {
				dsrow[j] = arow[j] * (darow[j] - dot)
			}
		}
		tensor.Scale(dS, scale)
		dQh := matMul(dS, headView(m.k, h, dk))
		dKh := matMul(transpose(dS), headView(m.q, h, dk))
		headAdd(dq, dQh, h, dk)
		headAdd(dkM, dKh, h, dk)
		headAdd(dv, dVh, h, dk)
	}
	// Through the input projections.
	xT := transpose(m.lastX)
	acc := func(p *Param, d *tensor.Matrix) {
		tensor.Add(p.Grad, p.Grad, matMul(xT, d))
	}
	acc(m.Wq, dq)
	acc(m.Wk, dkM)
	acc(m.Wv, dv)
	dx := matMul(dq, transpose(m.Wq.W))
	tensor.Add(dx, dx, matMul(dkM, transpose(m.Wk.W)))
	tensor.Add(dx, dx, matMul(dv, transpose(m.Wv.W)))
	return dx
}

// Params implements Layer.
func (m *MultiHeadAttention) Params() []*Param {
	return []*Param{m.Wq, m.Wk, m.Wv, m.Wo}
}

// Name implements Layer.
func (m *MultiHeadAttention) Name() string {
	return fmt.Sprintf("MHA(d%d,h%d)", m.Dim, m.Heads)
}

// Residual wraps an inner layer with a skip connection: y = x + f(x).
type Residual struct{ Inner Layer }

// NewResidual wraps inner in a skip connection.
func NewResidual(inner Layer) *Residual { return &Residual{Inner: inner} }

// ForwardBatch implements Layer: the inner layer runs batched, the
// skip additions stay per window.
func (r *Residual) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	trainOnOne(xs, train)
	inner := r.Inner.ForwardBatch(ws, xs, train)
	out := ws.Matrices(len(xs))
	for i, x := range xs {
		out[i] = tensor.Add(ws.Uninit(x.Rows, x.Cols), x, inner[i])
	}
	return out
}

// Backward implements Layer.
func (r *Residual) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	return tensor.Add(nil, gradOut, r.Inner.Backward(gradOut))
}

// Params implements Layer.
func (r *Residual) Params() []*Param { return r.Inner.Params() }

// Name implements Layer.
func (r *Residual) Name() string { return "Residual(" + r.Inner.Name() + ")" }

// Sequential groups layers so they can sit inside a Residual.
type Sequential struct{ Inner []Layer }

// NewSequential groups the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Inner: layers} }

// ForwardBatch implements Layer: the batch threads through every
// inner layer's batched path.
func (s *Sequential) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	trainOnOne(xs, train)
	for _, l := range s.Inner {
		xs = l.ForwardBatch(ws, xs, train)
	}
	return xs
}

// Backward implements Layer.
func (s *Sequential) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Inner) - 1; i >= 0; i-- {
		gradOut = s.Inner[i].Backward(gradOut)
	}
	return gradOut
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Inner {
		out = append(out, l.Params()...)
	}
	return out
}

// Name implements Layer.
func (s *Sequential) Name() string {
	n := "Seq("
	for i, l := range s.Inner {
		if i > 0 {
			n += ","
		}
		n += l.Name()
	}
	return n + ")"
}

// TransformerBlock is one post-norm encoder layer: LN(x + MHA(x)) followed by
// LN(x + FF(x)) with a ReLU feed-forward of width ffDim.
func TransformerBlock(dim, heads, ffDim int, dropout float64, rng *tensor.RNG) Layer {
	attn := NewResidual(NewSequential(
		NewMultiHeadAttention(dim, heads, rng),
		NewDropout(dropout, rng.Fork()),
	))
	ff := NewResidual(NewSequential(
		NewDense(dim, ffDim, rng),
		NewReLU(),
		NewDense(ffDim, dim, rng),
		NewDropout(dropout, rng.Fork()),
	))
	return NewSequential(attn, NewLayerNorm(dim), ff, NewLayerNorm(dim))
}
