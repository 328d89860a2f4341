package tensor

import "math/bits"

// Workspace is the reusable scratch arena behind allocation-free steady-state
// inference: every temporary a batched kernel needs — stacked input matrices,
// GEMM destinations, SplitRows view headers, feature rows, label slices —
// comes out of size-bucketed free lists instead of the heap, and one explicit
// Reset at the top of the next tick recycles all of it.
//
// Buckets are power-of-two capacity classes. Get paths pop a free slice of the
// right class (or allocate one that the pool then keeps), so after a warm-up
// tick in which every class the workload touches has been populated, the hot
// path performs zero heap allocations. There is deliberately no sync.Pool and
// no lock: a Workspace is single-owner state (one per serving shard, reset at
// tick boundaries), and the GC-driven emptying of sync.Pool is exactly the
// steady-state refill churn this type exists to avoid.
//
// Ownership contract: everything obtained from a Workspace — matrices, their
// backing data, slices, SplitRowsWS views — is valid only until the next
// Reset. Callers that need a value to outlive the cycle must copy it out.
// Reset must only be called when no value from the previous cycle is still
// referenced. A workspace is required wherever one is accepted, except by
// GEMM and GEMMBlocks, where nil means a serial one-off product: another
// one-off call (a calibration pass, a single-window Predict) takes a fresh
// NewWorkspace, which simply keeps what the call allocates.
type Workspace struct {
	f64  wsPool[float64]
	i8   wsPool[int8]
	i16  wsPool[int16]
	rows wsPool[[]float64]
	mats wsPool[*Matrix]

	// hdrs owns every Matrix header the workspace has ever handed out, in
	// 32-header chunks; hoff is the bump cursor reset each cycle.
	hdrs []*Matrix
	hoff int

	// pool is the shared GEMM worker pool large products dispatch onto. It is
	// owned by the hub, not the workspace: Reset leaves it attached, and a nil
	// pool (the default) keeps every kernel serial.
	pool *Pool
}

// SetPool attaches the kernel pool GEMMs dispatched through this workspace
// may use.
func (ws *Workspace) SetPool(p *Pool) { ws.pool = p }

// Pool reports the attached kernel pool; nil, the default and a nil
// workspace's, means serial.
func (ws *Workspace) Pool() *Pool {
	if ws == nil {
		return nil
	}
	return ws.pool
}

// NewWorkspace returns an empty workspace. Buckets fill lazily as kernels
// request scratch.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset recycles every outstanding slice and header for the next cycle. It
// never frees memory: the high-water footprint of one cycle is retained so
// the next identical cycle allocates nothing.
func (ws *Workspace) Reset() {
	ws.f64.reset()
	ws.i8.reset()
	ws.i16.reset()
	ws.rows.reset()
	ws.mats.reset()
	ws.hoff = 0
}

// Floats returns a zeroed float64 slice of length n, valid until Reset.
func (ws *Workspace) Floats(n int) []float64 {
	s := ws.f64.get(n)
	clear(s)
	return s
}

// Int8s returns a zeroed int8 slice of length n, valid until Reset — the
// quantized kernels' activation scratch.
func (ws *Workspace) Int8s(n int) []int8 {
	s := ws.i8.get(n)
	clear(s)
	return s
}

// Int16s returns a zeroed int16 slice of length n, valid until Reset — the
// quantized forest's feature scratch.
func (ws *Workspace) Int16s(n int) []int16 {
	s := ws.i16.get(n)
	clear(s)
	return s
}

// FloatRows returns a nil-initialised [][]float64 of length n, valid until
// Reset — the row-pointer table batched feature extraction fills in.
func (ws *Workspace) FloatRows(n int) [][]float64 {
	s := ws.rows.get(n)
	clear(s)
	return s
}

// Matrices returns a nil-initialised []*Matrix of length n, valid until
// Reset — the per-window output table of a batched kernel.
func (ws *Workspace) Matrices(n int) []*Matrix {
	s := ws.mats.get(n)
	clear(s)
	return s
}

// Zeros returns a zero-filled rows×cols matrix valid until Reset — the
// workspace analogue of New, for accumulators that rely on zero initial
// contents (e.g. LSTM hidden/cell state).
func (ws *Workspace) Zeros(rows, cols int) *Matrix {
	m := ws.Uninit(rows, cols)
	clear(m.Data)
	return m
}

// Uninit returns a rows×cols matrix with unspecified contents, valid until
// Reset. Callers must overwrite every element (or hand it to a kernel that
// does, like GEMM's dst).
func (ws *Workspace) Uninit(rows, cols int) *Matrix {
	h := ws.header()
	h.Rows, h.Cols = rows, cols
	h.Data = ws.f64.get(rows * cols)
	return h
}

// View wraps data (length must equal rows*cols) in a workspace-owned header
// without copying — the pooled analogue of FromSlice.
func (ws *Workspace) View(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic("tensor: workspace View length mismatch")
	}
	h := ws.header()
	h.Rows, h.Cols = rows, cols
	h.Data = data
	return h
}

// header hands out the next pooled Matrix header, growing the header store in
// chunks so steady state touches only the bump cursor.
func (ws *Workspace) header() *Matrix {
	if ws.hoff == len(ws.hdrs) {
		chunk := make([]Matrix, 32)
		for i := range chunk {
			ws.hdrs = append(ws.hdrs, &chunk[i])
		}
	}
	h := ws.hdrs[ws.hoff]
	ws.hoff++
	return h
}

// StackWS is Stack with the output drawn from ws.
func StackWS(ws *Workspace, xs []*Matrix) *Matrix {
	if len(xs) == 0 {
		panic("tensor: Stack of empty batch")
	}
	r, c := xs[0].Rows, xs[0].Cols
	out := ws.Uninit(len(xs)*r, c)
	for i, x := range xs {
		if x.Rows != r || x.Cols != c {
			panic("tensor: Stack shape mismatch")
		}
		copy(out.Data[i*r*c:(i+1)*r*c], x.Data)
	}
	return out
}

// SplitRowsWS is SplitRows with the view headers and the view table drawn
// from ws. The views share m's storage.
func SplitRowsWS(ws *Workspace, m *Matrix, rowsPer int) []*Matrix {
	if rowsPer < 1 || m.Rows%rowsPer != 0 {
		panic("tensor: SplitRows does not divide rows")
	}
	n := m.Rows / rowsPer
	out := ws.Matrices(n)
	per := rowsPer * m.Cols
	for i := range out {
		out[i] = ws.View(rowsPer, m.Cols, m.Data[i*per:(i+1)*per])
	}
	return out
}

// wsPool is one element type's size-bucketed free list. Class c holds slices
// of capacity exactly 1<<c; get pops (or makes) one and remembers it in used,
// reset moves used back to free. The bookkeeping slices themselves amortise
// to zero allocations once their capacity matches the cycle's demand.
type wsPool[T any] struct {
	free [48][][]T
	used [][]T
}

func (p *wsPool[T]) get(n int) []T {
	if n == 0 {
		return nil
	}
	c := bits.Len(uint(n - 1)) // smallest c with 1<<c >= n
	var s []T
	if l := len(p.free[c]); l > 0 {
		s = p.free[c][l-1][:n]
		p.free[c] = p.free[c][:l-1]
	} else {
		s = make([]T, n, 1<<c)
	}
	p.used = append(p.used, s)
	return s
}

func (p *wsPool[T]) reset() {
	for i, s := range p.used {
		c := bits.TrailingZeros(uint(cap(s))) // cap is exactly 1<<c
		p.free[c] = append(p.free[c], s[:0])
		p.used[i] = nil
	}
	p.used = p.used[:0]
}
