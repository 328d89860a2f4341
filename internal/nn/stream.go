package nn

import (
	"fmt"

	"cognitivearm/internal/tensor"
)

// ConvStream is one session's streamed first convolution. A network whose
// first layer is a Conv1D sees a sliding window move by a few samples per
// classification, so most of that layer's output rows are rows it produced
// before. The stream keeps them: the layer's output (with the following
// ReLU, when the network has one) for every start position of the window,
// at stride 1 — W − K + 1 rows for a W-sample window — so the rows of either
// stride phase are kept however far the window moves. Each sample pushed
// into the window completes one new start position; Network.ForwardStream
// computes a position's row the first time a window needs it and reads it
// back every later time.
//
// The stream is derived state: it holds nothing the window does not
// determine, so it is never persisted. A new stream is empty, and its first
// forward computes the rows that window needs, which is how a restored or
// migrated session rebuilds it. A ConvStream is single-session state and
// must not be shared across goroutines.
type ConvStream struct {
	rows []float64 // positions × cols ring; position a lives in slot a mod positions
	done []bool    // done[slot]: rows holds that slot's position
	// positions is the window's start-position count, W − K + 1; cols the
	// layer's output channels.
	positions, cols int
	next            int // slot of the window's oldest position, where the next one completes
}

// NewConvStream returns an empty stream for windows of the given length, or
// nil when the network's first layer is not a Conv1D (or the window is
// shorter than its kernel): such a network has nothing to stream.
func (n *Network) NewConvStream(window int) *ConvStream {
	if len(n.Layers) == 0 {
		return nil
	}
	c, ok := n.Layers[0].(*Conv1D)
	if !ok || window < c.Kernel {
		return nil
	}
	p := window - c.Kernel + 1
	return &ConvStream{rows: make([]float64, p*c.OutChannels), done: make([]bool, p), positions: p, cols: c.OutChannels}
}

// Advance records that k more samples were pushed into the window the
// stream follows: k new start positions complete in the slots of the k
// oldest, which leave the window.
func (s *ConvStream) Advance(k int) {
	for i := 0; i < min(k, s.positions); i++ {
		s.done[(s.next+i)%s.positions] = false
	}
	s.next = (s.next + k) % s.positions
}

// ForwardStream is ForwardBatch for windows whose first-layer rows are kept
// in streams, one per window: streams[i] must have followed xs[i] since it
// was made, with one Advance per sample pushed. The rows a window needs at
// the layer's stride that its stream does not hold go through one GEMM for
// the whole batch, reading them in place from the windows; each window's
// rows are then copied, in the layout the Conv1D's own batched forward
// produces, to the remaining layers' ForwardBatch. Each first-layer row is
// one GEMM row over the same input values, weight and epilogue in either
// path, and a tile's result does not depend on its neighbours, so the
// outputs are bitwise identical to ForwardBatch's. Inference only;
// temporaries come from ws.
func (n *Network) ForwardStream(ws *tensor.Workspace, xs []*tensor.Matrix, streams []*ConvStream) []*tensor.Matrix {
	if len(xs) == 0 {
		return nil
	}
	if len(streams) != len(xs) {
		panic(fmt.Sprintf("nn: ForwardStream given %d streams for %d windows", len(streams), len(xs)))
	}
	sameShape(xs)
	c := n.Layers[0].(*Conv1D)
	x0 := xs[0]
	if x0.Cols != c.InChannels {
		panic(fmt.Sprintf("nn: Conv1D expects %d channels, got %d", c.InChannels, x0.Cols))
	}
	p, kc, cols := x0.Rows-c.Kernel+1, c.Kernel*c.InChannels, c.OutChannels
	outT, step := c.OutLen(x0.Rows), c.Stride*c.InChannels
	for i, s := range streams {
		if s == nil || s.positions != p || s.cols != cols {
			panic(fmt.Sprintf("nn: ForwardStream stream %d does not follow %dx%d windows", i, x0.Rows, x0.Cols))
		}
	}
	relu := len(n.Layers) > 1
	if relu {
		_, relu = n.Layers[1].(*ReLU)
	}

	// The rows no stream holds, window by window, oldest first: row t of a
	// window starts at input row t·S.
	missing := ws.Matrices(len(xs) * outT)
	m := 0
	for i, s := range streams {
		data := xs[i].Data
		for t, slot := 0, s.next; t < outT; t++ {
			if !s.done[slot] {
				missing[m] = ws.View(1, kc, data[t*step:][:kc])
				m++
			}
			if slot += c.Stride; slot >= p {
				slot -= p
			}
		}
	}
	// The GEMM writes the new rows into the last m rows of out, the layer's
	// output, and the loop below moves them to the streams in order while
	// it fills out from the front, with no buffer of their own. Filling out
	// row g cannot lose a new row: the rows of out from g on are at least as
	// many as the new rows not moved yet, which are the last of y, so the
	// one row g held has been moved.
	out := ws.Uninit(len(xs)*outT, cols)
	y := ws.View(m, cols, out.Data[(len(xs)*outT-m)*cols:])
	if m > 0 {
		tensor.GEMMBlocks(ws, y, tensor.RowBlocks{Blocks: missing[:m], Rows: 1, Cols: kc, Stride: kc},
			c.Weight.W, tensor.Epilogue{Bias: c.Bias.W.Data, ReLU: relu})
	}
	r := 0
	for i, s := range streams {
		dst := out.Data[i*outT*cols:]
		for t, slot := 0, s.next; t < outT; t++ {
			row := s.rows[slot*cols:][:cols]
			if !s.done[slot] {
				copy(row, y.Data[r*cols:])
				s.done[slot] = true
				r++
			}
			copy(dst[t*cols:], row)
			if slot += c.Stride; slot >= p {
				slot -= p
			}
		}
	}
	next := 1
	if relu {
		next = 2
	}
	return n.forwardFrom(ws, tensor.SplitRowsWS(ws, out, outT), next, false)
}

// PredictStream is PredictBatch over ForwardStream: one class index per
// window, identical to PredictBatch's. Labels land in dst when it has
// capacity.
func (n *Network) PredictStream(ws *tensor.Workspace, xs []*tensor.Matrix, streams []*ConvStream, dst []int) []int {
	return argmaxRows(n.ForwardStream(ws, xs, streams), dst)
}
