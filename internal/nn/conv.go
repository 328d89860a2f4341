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

	lastX *tensor.Matrix
	outT  int
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

// im2colView views each window of xs as its outT im2col rows: output step t's
// receptive field is the K·Cin values from input row t·S on.
func (c *Conv1D) im2colView(xs []*tensor.Matrix, outT int) tensor.RowBlocks {
	return tensor.RowBlocks{Blocks: xs, Rows: outT, Cols: c.Kernel * c.InChannels, Stride: c.Stride * c.InChannels}
}

// ForwardBatch implements Layer: the whole batch convolves in a single
// (B·T')×(K·Cin) GEMM against the kernel weight, with the weight streamed
// once instead of B times (see forwardBatchFused). Train mode saves the
// input.
func (c *Conv1D) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	trainOnOne(xs, train)
	y := c.forwardBatchFused(ws, xs, false)
	if train {
		c.lastX, c.outT = xs[0], y[0].Rows
	}
	return y
}

// forwardBatchFused implements epilogueFuser. Output step t of a window reads
// input rows t·S .. t·S+K−1, which in a row-major T×Cin window are already
// one contiguous run of K·Cin values starting at t·S·Cin — the im2col row —
// so the GEMM reads the B windows themselves as T' overlapping rows each and
// nothing is unfolded or copied. Bias (and the following ReLU, when fused)
// apply in the GEMM's epilogue.
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
	y := tensor.GEMMBlocks(ws, ws.Uninit(len(xs)*outT, c.OutChannels), c.im2colView(xs, outT),
		c.Weight.W, tensor.Epilogue{Bias: c.Bias.W.Data, ReLU: relu})
	return tensor.SplitRowsWS(ws, y, outT)
}

// Backward implements Layer.
func (c *Conv1D) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	// dW += colᵀ·dY, colᵀ gathered from the input: row k·Cin+ch, column t
	// is x[t·S+k][ch]. db += colsums(dY).
	n := c.Kernel * c.InChannels
	colT := tensor.New(n, c.outT)
	for t := 0; t < c.outT; t++ {
		for r, v := range c.lastX.Data[t*c.Stride*c.InChannels:][:n] {
			colT.Data[r*c.outT+t] = v
		}
	}
	tensor.Add(c.Weight.Grad, c.Weight.Grad, matMul(colT, gradOut))
	sums := make([]float64, c.OutChannels)
	tensor.ColSums(sums, gradOut)
	for j := range sums {
		c.Bias.Grad.Data[j] += sums[j]
	}
	// dCol = dY·Wᵀ, then scatter back through the im2col mapping.
	dcol := matMul(gradOut, transpose(c.Weight.W))
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

	lastX *tensor.Matrix
	outT  int
}

// NewPool1D creates a temporal pooling layer.
func NewPool1D(kind PoolKind, window int) *Pool1D {
	if window < 1 {
		panic("nn: pool window must be >= 1")
	}
	return &Pool1D{Kind: kind, Window: window}
}

// ForwardBatch implements Layer: the pooling loops run per window
// (no cross-window arithmetic to fuse) but write into one shared (B·T')×C
// output, one scratch buffer for the batch. Train mode saves the input.
func (p *Pool1D) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	trainOnOne(xs, train)
	if len(xs) == 0 {
		return nil
	}
	x0 := xs[0]
	outT := x0.Rows / p.Window
	if outT == 0 {
		outT = 1 // degenerate input shorter than window: pool everything
	}
	if train {
		p.lastX, p.outT = x0, outT
	}
	y := ws.Uninit(len(xs)*outT, x0.Cols)
	for i, x := range xs {
		for t := 0; t < outT; t++ {
			start, end := p.span(t, x.Rows)
			row := y.Row(i*outT + t)
			for j := 0; j < x.Cols; j++ {
				switch p.Kind {
				case MaxPoolKind:
					row[j], _ = maxRow(x, start, end, j)
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

// span returns the input rows [start, end) output step t pools.
func (p *Pool1D) span(t, rows int) (start, end int) {
	start = t * p.Window
	return start, min(start+p.Window, rows)
}

// maxRow returns column j's maximum over rows [start, end), −Inf when no
// value exceeds it, and the row of its first occurrence (start when none):
// the forward's value and, rescanned, Backward's argmax.
func maxRow(x *tensor.Matrix, start, end, j int) (best float64, row int) {
	best, row = math.Inf(-1), start
	for r := start; r < end; r++ {
		if v := x.At(r, j); v > best {
			best, row = v, r
		}
	}
	return best, row
}

// Backward implements Layer: max pooling routes each gradient to the row
// maxRow finds again in the saved input.
func (p *Pool1D) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	dx := tensor.New(p.lastX.Rows, p.lastX.Cols)
	for t := 0; t < p.outT; t++ {
		start, end := p.span(t, p.lastX.Rows)
		for j := 0; j < dx.Cols; j++ {
			g := gradOut.At(t, j)
			switch p.Kind {
			case MaxPoolKind:
				_, r := maxRow(p.lastX, start, end, j)
				dx.Data[r*dx.Cols+j] += g
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
