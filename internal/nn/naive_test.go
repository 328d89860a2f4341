package nn

import (
	"fmt"
	"math"
	"testing"

	"cognitivearm/internal/tensor"
)

// The naive loops training multiplied through before it moved onto the GEMM
// tile, kept as the reference its bits are held to. They skip zero left
// inputs, as they always did; with finite operands the skipped term is ±0,
// which the tile adds without changing a bit.

// naiveMatMul returns a·b.
func naiveMatMul(a, b *tensor.Matrix) *tensor.Matrix {
	dst := tensor.New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow, drow := a.Row(i), dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				drow[j] += aik * bv
			}
		}
	}
	return dst
}

// naiveMatMulTransB returns a·bᵀ.
func naiveMatMulTransB(a, b *tensor.Matrix) *tensor.Matrix {
	dst := tensor.New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow, drow := a.Row(i), dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k := range arow {
				s += arow[k] * brow[k]
			}
			drow[j] = s
		}
	}
	return dst
}

// naiveMatMulTransA returns aᵀ·b.
func naiveMatMulTransA(a, b *tensor.Matrix) *tensor.Matrix {
	dst := tensor.New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		brow := b.Row(k)
		for i, aki := range a.Row(k) {
			if aki == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += aki * bv
			}
		}
	}
	return dst
}

// naiveAddRowVector adds v to every row of m in place.
func naiveAddRowVector(m *tensor.Matrix, v []float64) {
	for i := 0; i < m.Rows; i++ {
		for j, x := range m.Row(i) {
			m.Row(i)[j] = x + v[j]
		}
	}
}

// addBiasGrad adds the column sums of gradOut to a bias gradient.
func addBiasGrad(grad []float64, gradOut *tensor.Matrix) {
	sums := make([]float64, len(grad))
	tensor.ColSums(sums, gradOut)
	for j := range sums {
		grad[j] += sums[j]
	}
}

// refDense is Dense's forward and backward on the naive loops. grads are
// the weight and bias gradients to accumulate into.
func refDense(d *Dense, x, gradOut *tensor.Matrix, grads []*tensor.Matrix) (y, dx *tensor.Matrix) {
	y = naiveMatMul(x, d.Weight.W)
	naiveAddRowVector(y, d.Bias.W.Data)
	tensor.Add(grads[0], grads[0], naiveMatMulTransA(x, gradOut))
	addBiasGrad(grads[1].Data, gradOut)
	return y, naiveMatMulTransB(gradOut, d.Weight.W)
}

// refConv is Conv1D's forward (im2col copied out, then a matmul) and
// backward on the naive loops.
func refConv(c *Conv1D, x, gradOut *tensor.Matrix, grads []*tensor.Matrix) (y, dx *tensor.Matrix) {
	outT := c.OutLen(x.Rows)
	col := tensor.New(outT, c.Kernel*c.InChannels)
	for t := 0; t < outT; t++ {
		for k := 0; k < c.Kernel; k++ {
			copy(col.Row(t)[k*c.InChannels:(k+1)*c.InChannels], x.Row(t*c.Stride+k))
		}
	}
	y = naiveMatMul(col, c.Weight.W)
	naiveAddRowVector(y, c.Bias.W.Data)
	tensor.Add(grads[0], grads[0], naiveMatMulTransA(col, gradOut))
	addBiasGrad(grads[1].Data, gradOut)
	dcol := naiveMatMulTransB(gradOut, c.Weight.W)
	dx = tensor.New(x.Rows, x.Cols)
	for t := 0; t < outT; t++ {
		for k := 0; k < c.Kernel; k++ {
			dst := dx.Row(t*c.Stride + k)
			for j, v := range dcol.Row(t)[k*c.InChannels : (k+1)*c.InChannels] {
				dst[j] += v
			}
		}
	}
	return y, dx
}

// refAttention is MultiHeadAttention's forward and backward on the naive
// loops. grads are Wq, Wk, Wv and Wo's gradients, in Params order.
func refAttention(m *MultiHeadAttention, x, gradOut *tensor.Matrix, grads []*tensor.Matrix) (y, dx *tensor.Matrix) {
	q := naiveMatMul(x, m.Wq.W)
	k := naiveMatMul(x, m.Wk.W)
	v := naiveMatMul(x, m.Wv.W)
	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	attn := make([]*tensor.Matrix, m.Heads)
	concat := tensor.New(x.Rows, m.Dim)
	for h := 0; h < m.Heads; h++ {
		scores := naiveMatMulTransB(headView(q, h, dk), headView(k, h, dk))
		tensor.Scale(scores, scale)
		tensor.SoftmaxRows(scores)
		attn[h] = scores
		oh := naiveMatMul(scores, headView(v, h, dk))
		for t := 0; t < x.Rows; t++ {
			copy(concat.Row(t)[h*dk:(h+1)*dk], oh.Row(t))
		}
	}
	y = naiveMatMul(concat, m.Wo.W)

	tensor.Add(grads[3], grads[3], naiveMatMulTransA(concat, gradOut))
	dConcat := naiveMatMulTransB(gradOut, m.Wo.W)
	dq, dkM, dv := tensor.New(x.Rows, m.Dim), tensor.New(x.Rows, m.Dim), tensor.New(x.Rows, m.Dim)
	for h := 0; h < m.Heads; h++ {
		dOh := headView(dConcat, h, dk)
		qh, kh, vh := headView(q, h, dk), headView(k, h, dk), headView(v, h, dk)
		A := attn[h]
		dA := naiveMatMulTransB(dOh, vh)
		dVh := naiveMatMulTransA(A, dOh)
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
		headAdd(dq, naiveMatMul(dS, kh), h, dk)
		headAdd(dkM, naiveMatMulTransA(dS, qh), h, dk)
		headAdd(dv, dVh, h, dk)
	}
	for i, d := range []*tensor.Matrix{dq, dkM, dv} {
		tensor.Add(grads[i], grads[i], naiveMatMulTransA(x, d))
	}
	dx = naiveMatMulTransB(dq, m.Wq.W)
	tensor.Add(dx, dx, naiveMatMulTransB(dkM, m.Wk.W))
	tensor.Add(dx, dx, naiveMatMulTransB(dv, m.Wv.W))
	return y, dx
}

// saltTrain fills m with normal values and, about one in six, an exact zero
// of either sign, a subnormal or a large negative: the finite values a zero
// skip or a reordered sum would show up on.
func saltTrain(rng *tensor.RNG, m *tensor.Matrix) {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, -1e3}
	for i := range m.Data {
		if rng.Intn(6) == 0 {
			m.Data[i] = specials[rng.Intn(len(specials))]
		} else {
			m.Data[i] = rng.NormFloat64()
		}
	}
}

// TestTrainingMatchesNaive holds the training path — a one-window
// ForwardBatch(ws, [x], true), then Backward — of every layer that multiplies to the naive loops it ran on
// before, bit for bit: the output, each parameter gradient and dx. Inputs,
// upstream gradients and weights are salted, and every gradient starts
// nonzero, so a product accumulated into Param.Grad inside the GEMM, rather
// than added after it, rounds differently and fails. Sizes cover the tile's
// row and column tails.
func TestTrainingMatchesNaive(t *testing.T) {
	type refFunc func(x, gradOut *tensor.Matrix, grads []*tensor.Matrix) (y, dx *tensor.Matrix)
	type trainCase struct {
		name  string
		layer Layer
		x     *tensor.Matrix
		ref   refFunc
	}
	rng := tensor.NewRNG(23)
	dense := NewDense(13, 9, rng)
	cases := []trainCase{{"dense", dense, tensor.New(7, 13), func(x, g *tensor.Matrix, gr []*tensor.Matrix) (*tensor.Matrix, *tensor.Matrix) {
		return refDense(dense, x, g, gr)
	}}}
	for _, stride := range []int{1, 2} {
		conv := NewConv1D(6, 11, 5, stride, rng)
		cases = append(cases, trainCase{fmt.Sprintf("conv-s%d", stride), conv, tensor.New(30, 6), func(x, g *tensor.Matrix, gr []*tensor.Matrix) (*tensor.Matrix, *tensor.Matrix) {
			return refConv(conv, x, g, gr)
		}})
	}
	mha := NewMultiHeadAttention(12, 3, rng)
	cases = append(cases, trainCase{"attention", mha, tensor.New(10, 12), func(x, g *tensor.Matrix, gr []*tensor.Matrix) (*tensor.Matrix, *tensor.Matrix) {
		return refAttention(mha, x, g, gr)
	}})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			saltTrain(rng, tc.x)
			params := tc.layer.Params()
			grads := make([]*tensor.Matrix, len(params))
			for i, p := range params {
				saltTrain(rng, p.W)
				saltTrain(rng, p.Grad)
				grads[i] = p.Grad.Clone()
			}
			y := tc.layer.ForwardBatch(tensor.NewWorkspace(), []*tensor.Matrix{tc.x}, true)[0]
			gradOut := tensor.New(y.Rows, y.Cols)
			saltTrain(rng, gradOut)
			dx := tc.layer.Backward(gradOut)

			wantY, wantDX := tc.ref(tc.x, gradOut, grads)
			assertSameBits(t, "output", y.Data, wantY.Data)
			for i, p := range params {
				assertSameBits(t, p.Name+" gradient", p.Grad.Data, grads[i].Data)
			}
			assertSameBits(t, "dx", dx.Data, wantDX.Data)
		})
	}
}
