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

// Forward implements Layer.
func (ln *LayerNorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != ln.Dim {
		panic(fmt.Sprintf("nn: LayerNorm expects dim %d, got %d", ln.Dim, x.Cols))
	}
	y := tensor.New(x.Rows, x.Cols)
	// x̂ and 1/σ are backward-pass caches; skip them on the inference hot
	// path, where every serving-hub session would otherwise allocate and
	// fill a full matrix per LayerNorm per window.
	var norm *tensor.Matrix
	var invStd []float64
	if train {
		norm = tensor.New(x.Rows, x.Cols)
		invStd = make([]float64, x.Rows)
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		mu := tensor.Mean(row)
		var v float64
		for _, xv := range row {
			d := xv - mu
			v += d * d
		}
		v /= float64(len(row))
		inv := 1 / math.Sqrt(v+ln.Eps)
		yrow := y.Row(i)
		if train {
			invStd[i] = inv
			nrow := norm.Row(i)
			for j, xv := range row {
				nrow[j] = (xv - mu) * inv
				yrow[j] = nrow[j]*ln.Gamma.W.Data[j] + ln.Beta.W.Data[j]
			}
		} else {
			for j, xv := range row {
				yrow[j] = (xv-mu)*inv*ln.Gamma.W.Data[j] + ln.Beta.W.Data[j]
			}
		}
	}
	if train {
		ln.lastNorm = norm
		ln.invStd = invStd
	}
	return y
}

// ForwardBatch implements Layer: row-wise normalisation writes all
// B windows into one (B·T)×D output, one scratch buffer for the batch.
//
//cogarm:zeroalloc
func (ln *LayerNorm) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
	if len(xs) == 0 {
		return nil
	}
	if xs[0].Cols != ln.Dim {
		panic(fmt.Sprintf("nn: LayerNorm expects dim %d, got %d", ln.Dim, xs[0].Cols))
	}
	T := xs[0].Rows
	y := ws.Uninit(len(xs)*T, ln.Dim)
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

// Forward implements Layer.
func (pe *PositionalEncoding) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	y := x.Clone()
	for t := 0; t < y.Rows; t++ {
		row := y.Row(t)
		for j := 0; j < pe.Dim; j += 2 {
			angle := float64(t) / math.Pow(10000, float64(j)/float64(pe.Dim))
			row[j] += math.Sin(angle)
			if j+1 < pe.Dim {
				row[j+1] += math.Cos(angle)
			}
		}
	}
	return y
}

// ForwardBatch implements Layer: the sinusoid table depends only on
// the window length, so it is materialised once and added to every window —
// B−1 fewer trips through math.Sin/Cos/Pow than per-window Forward.
//
//cogarm:zeroalloc
func (pe *PositionalEncoding) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
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

// Forward implements Layer.
func (m *MultiHeadAttention) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != m.Dim {
		panic(fmt.Sprintf("nn: attention expects dim %d, got %d", m.Dim, x.Cols))
	}
	q := tensor.MatMul(nil, x, m.Wq.W)
	k := tensor.MatMul(nil, x, m.Wk.W)
	v := tensor.MatMul(nil, x, m.Wv.W)
	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	attn := make([]*tensor.Matrix, m.Heads)
	concat := tensor.New(x.Rows, m.Dim)
	for h := 0; h < m.Heads; h++ {
		qh := headView(q, h, dk)
		kh := headView(k, h, dk)
		vh := headView(v, h, dk)
		scores := tensor.MatMulTransB(nil, qh, kh)
		tensor.Scale(scores, scale)
		tensor.SoftmaxRows(scores)
		attn[h] = scores
		oh := tensor.MatMul(nil, scores, vh)
		for t := 0; t < x.Rows; t++ {
			copy(concat.Row(t)[h*dk:(h+1)*dk], oh.Row(t))
		}
	}
	if train {
		m.lastX = x
		m.q, m.k, m.v = q, k, v
		m.attn = attn
		m.concat = concat
	}
	return tensor.MatMul(nil, concat, m.Wo.W)
}

// ForwardBatch implements Layer: the Q/K/V input projections and the
// output projection each run as one (B·T)×D GEMM over the whole batch — the
// inputs read from the windows in place, 4 GEMMs total instead of 4·B — while
// the T×T attention itself stays per-window (scores never mix windows).
//
//cogarm:zeroalloc
func (m *MultiHeadAttention) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
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
	//cogarm:allow zeroalloc -- proj never escapes: defined and called three times in this frame, so it stays on the stack (AllocsPerRun bench holds this path at zero)
	proj := func(w *Param) []*tensor.Matrix {
		return tensor.SplitRowsWS(ws, tensor.GEMMBlocks(ws, ws.Uninit(B*T, m.Dim), x, w.W, tensor.Epilogue{}), T)
	}
	//cogarm:allow zeroalloc -- calls to the non-escaping proj closure above; the body is verified through its tensor callees
	qs, ks, vs := proj(m.Wq), proj(m.Wk), proj(m.Wv)
	concat := ws.Uninit(B*T, m.Dim)
	// One set of per-head scratch, reused across every (window, head) pair —
	// shapes are loop-invariant, so the workspace footprint stays one head's
	// worth instead of B·H of them.
	qh, kh, vh := ws.Uninit(T, dk), ws.Uninit(T, dk), ws.Uninit(T, dk)
	scores := ws.Uninit(T, T)
	oh := ws.Uninit(T, dk)
	for i := 0; i < B; i++ {
		for h := 0; h < m.Heads; h++ {
			headCopy(qh, qs[i], h, dk)
			headCopy(kh, ks[i], h, dk)
			headCopy(vh, vs[i], h, dk)
			tensor.MatMulTransB(scores, qh, kh)
			tensor.Scale(scores, scale)
			tensor.SoftmaxRows(scores)
			tensor.MatMul(oh, scores, vh)
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
	dWo := tensor.MatMulTransA(nil, m.concat, gradOut)
	tensor.Add(m.Wo.Grad, m.Wo.Grad, dWo)
	dConcat := tensor.MatMulTransB(nil, gradOut, m.Wo.W)

	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	dq := tensor.New(m.q.Rows, m.Dim)
	dkM := tensor.New(m.k.Rows, m.Dim)
	dv := tensor.New(m.v.Rows, m.Dim)
	for h := 0; h < m.Heads; h++ {
		dOh := headView(dConcat, h, dk)
		qh := headView(m.q, h, dk)
		kh := headView(m.k, h, dk)
		vh := headView(m.v, h, dk)
		A := m.attn[h]
		// dA = dO·Vᵀ ; dV = Aᵀ·dO
		dA := tensor.MatMulTransB(nil, dOh, vh)
		dVh := tensor.MatMulTransA(nil, A, dOh)
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
		dQh := tensor.MatMul(nil, dS, kh)
		dKh := tensor.MatMulTransA(nil, dS, qh)
		headAdd(dq, dQh, h, dk)
		headAdd(dkM, dKh, h, dk)
		headAdd(dv, dVh, h, dk)
	}
	// Through the input projections.
	acc := func(p *Param, d *tensor.Matrix) {
		g := tensor.MatMulTransA(nil, m.lastX, d)
		tensor.Add(p.Grad, p.Grad, g)
	}
	acc(m.Wq, dq)
	acc(m.Wk, dkM)
	acc(m.Wv, dv)
	dx := tensor.MatMulTransB(nil, dq, m.Wq.W)
	tensor.Add(dx, dx, tensor.MatMulTransB(nil, dkM, m.Wk.W))
	tensor.Add(dx, dx, tensor.MatMulTransB(nil, dv, m.Wv.W))
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

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	return tensor.Add(nil, x, r.Inner.Forward(x, train))
}

// ForwardBatch implements Layer: the inner layer runs batched, the
// skip additions stay per window.
//
//cogarm:zeroalloc
func (r *Residual) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
	inner := r.Inner.ForwardBatch(ws, xs, false)
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

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	for _, l := range s.Inner {
		x = l.Forward(x, train)
	}
	return x
}

// ForwardBatch implements Layer: the batch threads through every
// inner layer's batched path.
//
//cogarm:zeroalloc
func (s *Sequential) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
	for _, l := range s.Inner {
		xs = l.ForwardBatch(ws, xs, false)
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
