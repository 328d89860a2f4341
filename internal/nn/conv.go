package nn

import (
	"fmt"
	"math"

	"cognitivearm/internal/tensor"
)

// Conv1D convolves over the time axis of a T×Cin input, producing T'×Cout
// where T' = (T − K)/S + 1 (valid padding). The kernel weight is stored as a
// (K·Cin)×Cout matrix so forward is one im2col + matmul — the layout the
// paper's "filter size / stride" search axis maps onto directly.
type Conv1D struct {
	InChannels, OutChannels int
	Kernel, Stride          int
	Weight                  *Param
	Bias                    *Param

	lastX   *tensor.Matrix
	lastCol *tensor.Matrix
	outT    int
}

// NewConv1D builds a temporal convolution with He initialisation.
func NewConv1D(inCh, outCh, kernel, stride int, rng *tensor.RNG) *Conv1D {
	if kernel < 1 || stride < 1 {
		panic(fmt.Sprintf("nn: conv kernel %d / stride %d invalid", kernel, stride))
	}
	c := &Conv1D{
		InChannels: inCh, OutChannels: outCh, Kernel: kernel, Stride: stride,
		Weight: newParam("conv.W", kernel*inCh, outCh),
		Bias:   newParam("conv.b", 1, outCh),
	}
	tensor.HeInit(c.Weight.W, kernel*inCh, rng)
	return c
}

// OutLen returns the output length for an input of length t.
func (c *Conv1D) OutLen(t int) int {
	if t < c.Kernel {
		return 0
	}
	return (t-c.Kernel)/c.Stride + 1
}

// Forward implements Layer.
func (c *Conv1D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != c.InChannels {
		panic(fmt.Sprintf("nn: Conv1D expects %d channels, got %d", c.InChannels, x.Cols))
	}
	outT := c.OutLen(x.Rows)
	if outT <= 0 {
		panic(fmt.Sprintf("nn: Conv1D input length %d shorter than kernel %d", x.Rows, c.Kernel))
	}
	// im2col: each output step's receptive field becomes one row.
	col := tensor.New(outT, c.Kernel*c.InChannels)
	for t := 0; t < outT; t++ {
		dst := col.Row(t)
		src := t * c.Stride
		for k := 0; k < c.Kernel; k++ {
			copy(dst[k*c.InChannels:(k+1)*c.InChannels], x.Row(src+k))
		}
	}
	if train {
		c.lastX = x
		c.outT = outT
		c.lastCol = col
	}
	y := tensor.MatMul(nil, col, c.Weight.W)
	tensor.AddRowVector(y, c.Bias.W.Data)
	return y
}

// ForwardBatch implements Layer: the whole batch convolves in a
// single (B·T')×(K·Cin) GEMM against the kernel weight — the batched analogue
// of Forward's im2col + matmul, with the weight streamed once instead of B
// times and no im2col matrix at all (see forwardBatchFused).
//
//cogarm:zeroalloc
func (c *Conv1D) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
	return c.forwardBatchFused(ws, xs, false)
}

// forwardBatchFused implements epilogueFuser. Output step t of a window reads
// input rows t·S .. t·S+K−1, which in a row-major T×Cin window are already
// one contiguous run of K·Cin values starting at t·S·Cin — the im2col row —
// so the GEMM reads the B windows themselves as T' overlapping rows each and
// nothing is unfolded or copied. Bias (and the following ReLU, when fused)
// apply in the GEMM's epilogue.
//
//cogarm:zeroalloc
func (c *Conv1D) forwardBatchFused(ws *tensor.Workspace, xs []*tensor.Matrix, relu bool) []*tensor.Matrix {
	if len(xs) == 0 {
		return nil
	}
	x0 := xs[0]
	if x0.Cols != c.InChannels {
		panic(fmt.Sprintf("nn: Conv1D expects %d channels, got %d", c.InChannels, x0.Cols))
	}
	outT := c.OutLen(x0.Rows)
	if outT <= 0 {
		panic(fmt.Sprintf("nn: Conv1D input length %d shorter than kernel %d", x0.Rows, c.Kernel))
	}
	sameShape(xs)
	y := tensor.GEMMBlocks(ws, ws.Uninit(len(xs)*outT, c.OutChannels),
		tensor.RowBlocks{Blocks: xs, Rows: outT, Cols: c.Kernel * c.InChannels, Stride: c.Stride * c.InChannels},
		c.Weight.W, tensor.Epilogue{Bias: c.Bias.W.Data, ReLU: relu})
	return tensor.SplitRowsWS(ws, y, outT)
}

// Backward implements Layer.
func (c *Conv1D) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	// dW += colᵀ·dY ; db += colsums(dY)
	dw := tensor.MatMulTransA(nil, c.lastCol, gradOut)
	tensor.Add(c.Weight.Grad, c.Weight.Grad, dw)
	sums := make([]float64, c.OutChannels)
	tensor.ColSums(sums, gradOut)
	for j := range sums {
		c.Bias.Grad.Data[j] += sums[j]
	}
	// dCol = dY·Wᵀ, then scatter back through the im2col mapping.
	dcol := tensor.MatMulTransB(nil, gradOut, c.Weight.W)
	dx := tensor.New(c.lastX.Rows, c.lastX.Cols)
	for t := 0; t < c.outT; t++ {
		src := dcol.Row(t)
		base := t * c.Stride
		for k := 0; k < c.Kernel; k++ {
			dst := dx.Row(base + k)
			seg := src[k*c.InChannels : (k+1)*c.InChannels]
			for j := range dst {
				dst[j] += seg[j]
			}
		}
	}
	return dx
}

// Params implements Layer.
func (c *Conv1D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Name implements Layer.
func (c *Conv1D) Name() string {
	return fmt.Sprintf("Conv1D(%d→%d,k%d,s%d)", c.InChannels, c.OutChannels, c.Kernel, c.Stride)
}

// PoolKind selects max or average pooling (Table III's "Pooling (Max/Avg)").
type PoolKind int

// Pooling kinds.
const (
	MaxPoolKind PoolKind = iota
	AvgPoolKind
)

// Pool1D pools over the time axis with the given window and equal stride.
type Pool1D struct {
	Kind   PoolKind
	Window int

	lastX  *tensor.Matrix
	argmax []int // flat index per output element (max pooling)
	outT   int
}

// NewPool1D creates a temporal pooling layer.
func NewPool1D(kind PoolKind, window int) *Pool1D {
	if window < 1 {
		panic("nn: pool window must be >= 1")
	}
	return &Pool1D{Kind: kind, Window: window}
}

// Forward implements Layer.
func (p *Pool1D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	outT := x.Rows / p.Window
	if outT == 0 {
		outT = 1 // degenerate input shorter than window: pool everything
	}
	var argmax []int
	if train && p.Kind == MaxPoolKind {
		argmax = make([]int, outT*x.Cols)
	}
	y := tensor.New(outT, x.Cols)
	for t := 0; t < outT; t++ {
		start := t * p.Window
		end := start + p.Window
		if end > x.Rows {
			end = x.Rows
		}
		for j := 0; j < x.Cols; j++ {
			switch p.Kind {
			case MaxPoolKind:
				best := math.Inf(-1)
				bi := start
				for r := start; r < end; r++ {
					if v := x.At(r, j); v > best {
						best, bi = v, r
					}
				}
				y.Set(t, j, best)
				if argmax != nil {
					argmax[t*x.Cols+j] = bi
				}
			case AvgPoolKind:
				var s float64
				for r := start; r < end; r++ {
					s += x.At(r, j)
				}
				y.Set(t, j, s/float64(end-start))
			}
		}
	}
	if train {
		p.lastX = x
		p.outT = outT
		p.argmax = argmax
	}
	return y
}

// ForwardBatch implements Layer: the pooling loops run per window
// (no cross-window arithmetic to fuse) but write into one shared (B·T')×C
// output, one scratch buffer for the batch.
//
//cogarm:zeroalloc
func (p *Pool1D) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
	if len(xs) == 0 {
		return nil
	}
	x0 := xs[0]
	outT := x0.Rows / p.Window
	if outT == 0 {
		outT = 1
	}
	y := ws.Uninit(len(xs)*outT, x0.Cols)
	for i, x := range xs {
		for t := 0; t < outT; t++ {
			start := t * p.Window
			end := start + p.Window
			if end > x.Rows {
				end = x.Rows
			}
			row := y.Row(i*outT + t)
			for j := 0; j < x.Cols; j++ {
				switch p.Kind {
				case MaxPoolKind:
					best := math.Inf(-1)
					for r := start; r < end; r++ {
						if v := x.At(r, j); v > best {
							best = v
						}
					}
					row[j] = best
				case AvgPoolKind:
					var s float64
					for r := start; r < end; r++ {
						s += x.At(r, j)
					}
					row[j] = s / float64(end-start)
				}
			}
		}
	}
	return tensor.SplitRowsWS(ws, y, outT)
}

// Backward implements Layer.
func (p *Pool1D) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	dx := tensor.New(p.lastX.Rows, p.lastX.Cols)
	for t := 0; t < p.outT; t++ {
		start := t * p.Window
		end := start + p.Window
		if end > p.lastX.Rows {
			end = p.lastX.Rows
		}
		for j := 0; j < dx.Cols; j++ {
			g := gradOut.At(t, j)
			switch p.Kind {
			case MaxPoolKind:
				dx.Data[p.argmax[t*dx.Cols+j]*dx.Cols+j] += g
			case AvgPoolKind:
				share := g / float64(end-start)
				for r := start; r < end; r++ {
					dx.Data[r*dx.Cols+j] += share
				}
			}
		}
	}
	return dx
}

// Params implements Layer.
func (p *Pool1D) Params() []*Param { return nil }

// Name implements Layer.
func (p *Pool1D) Name() string {
	k := "Max"
	if p.Kind == AvgPoolKind {
		k = "Avg"
	}
	return fmt.Sprintf("%sPool1D(%d)", k, p.Window)
}
