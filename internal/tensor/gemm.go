package tensor

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// This file is the repo's one float64 multiply: every Dense, Conv1D and
// attention product of nn's one forward (training, single-window Predict and
// serving alike) and of Backward, transposed operands copied transposed by
// the caller. Every
// product is computed by one tile contract, implemented three times:
//
//	dst[r][j] = Σₖ a_r[k]·b[k][j]   for a 4-row tile, the whole sum held in
//	registers, k ascending, multiply and add each rounded on its own;
//	then += bias[j]; then v <= 0 → +0 (NaN kept).
//
// Where the build and the CPU allow it, tile4x16 (gemm_amd64.s, AVX-512F)
// computes full 16-column tiles and tile4x8 (AVX2) full 8-column ones — all of
// them without AVX-512, the one 8-column remainder with it; tile2 below, the
// portable Go tile, computes everything else: other architectures, purego
// builds, CPUs without AVX2, and the m%4 row and n%8 column tails. There is no
// packing and no Kc/Nc blocking: the serving shapes keep an 80×32 weight and
// one 12.8 KB window L1-resident as they are.
//
// Bitwise contract: per output element every tile performs exactly the
// operations of the naive loop `s += a*b` (s starting at +0), in the same
// order, so they agree with each other, with a separate bias add and ReLU
// clamp, and across batch sizes, bit for bit. That is why the assembly
// issues separate VMULPD and VADDPD: gc does not fuse `s += a*b` on amd64, and
// an FMA (one rounding instead of two) or a split-k accumulator would round
// differently and eventually flip an argmax. Inputs equal to zero are not
// skipped: with finite operands a skipped term is ±0, and adding ±0 to an
// accumulator that started at +0 (and so can never be −0) changes no bit.
// That is also why training kept its bits when it moved here from naive
// loops that skipped zero inputs. Row panels split on global 4-row
// boundaries, so which tile computes an element never depends on the thread
// count — and would not matter if it did.

// gemmParallelMinOps is the crossover below which GEMM stays on the calling
// goroutine: M·K·N multiply-accumulates must amortise one pool rendezvous
// (two atomics, up to threads−1 buffered channel sends and a WaitGroup wait —
// measured at ~1–2 µs end to end) to under 5 % of the serial time. Measured:
// the AVX2 tile runs the serving product, 2400×80 · 80×32 = 6.1 M MACs, in
// 290–510 µs across the 2-vCPU microVM's speed modes (BenchmarkGEMMSerial and
// BenchmarkGEMMBlocksServing: 12–21 MACs/ns), so 1<<20 MACs take 50–87 µs and
// a 2 µs dispatch is 2.3–4 % of them; 1<<19 would let it reach 8 %. The
// portable tile is ~5× slower, which only lowers that share. The serving
// product clears the bar; a 50-window 32→4 classifier head (6 400 MACs) never
// does.
const gemmParallelMinOps = 1 << 20

// The tile tiers, narrowest first; each wider one adds a tile in front of the
// narrower ones.
const (
	tierPortable = iota // tile2 alone
	tierAVX2            // tile4x8, then tile2
	tierAVX512          // tile4x16, then tile4x8, then tile2
)

// tier is the widest tier gemmRows runs: the host's, from the cpu gate. Only
// tests lower it, to run every tier the host has; it is not a setting.
var tier = hostTier()

// Epilogue is the fused post-op a GEMM applies to each output element as its
// tile leaves the registers: v += Bias[j] (when Bias is non-nil), then a ReLU
// clamp (v <= 0 → +0, NaN kept) when ReLU is set. Element-wise it is exactly
// a row-vector add followed by nn's inference ReLU, so fused and unfused
// paths are bitwise-identical.
type Epilogue struct {
	Bias []float64
	ReLU bool
}

// apply finishes one accumulated element of column j. The clamp selects on
// the bit pattern so it compiles to a conditional move: about half of a conv
// layer's activations are negative, which a branch would mispredict.
func (ep Epilogue) apply(s float64, j int) float64 {
	if ep.Bias != nil {
		s += ep.Bias[j]
	}
	if ep.ReLU {
		u := math.Float64bits(s)
		if s <= 0 {
			u = 0
		}
		s = math.Float64frombits(u)
	}
	return s
}

// RowBlocks describes a GEMM's left operand where it already lies instead of
// copying it into a matrix: len(Blocks)·Rows rows of Cols values each, global
// row r being Blocks[r/Rows].Data[t·Stride : t·Stride+Cols] with t = r%Rows.
// A plain matrix is one block with Stride = Cols. A batch of windows fed to a
// Dense layer is one block per window; fed to a Conv1D it is the same blocks
// with Stride = conv stride·Cin and Cols = kernel·Cin, because an im2col row
// is already contiguous in a row-major window. Rows may overlap (Stride <
// Cols) or skip data (Stride > Cols); only each block's Data is read, not its
// Rows/Cols.
type RowBlocks struct {
	Blocks []*Matrix
	Rows   int // rows per block
	Cols   int // values per row: the product's inner dimension
	Stride int // distance between the starts of consecutive rows of a block
}

// check panics unless every block holds Rows strided rows of Cols values.
func (a RowBlocks) check() {
	if a.Rows < 0 || a.Cols < 0 || a.Stride < 0 {
		panic(fmt.Sprintf("tensor: gemm row blocks %d rows × %d cols, stride %d", a.Rows, a.Cols, a.Stride))
	}
	if a.Rows == 0 {
		return
	}
	need := (a.Rows-1)*a.Stride + a.Cols
	for i, blk := range a.Blocks {
		if len(blk.Data) < need {
			panic(fmt.Sprintf("tensor: gemm row block %d holds %d values, %d rows × %d cols at stride %d need %d",
				i, len(blk.Data), a.Rows, a.Cols, a.Stride, need))
		}
	}
}

// rowCursor walks a RowBlocks' global rows in order without dividing per row.
type rowCursor struct {
	a      RowBlocks
	blk, t int
}

func (a RowBlocks) cursor(r int) rowCursor {
	return rowCursor{a: a, blk: r / a.Rows, t: r % a.Rows}
}

func (c *rowCursor) next() []float64 {
	off := c.t * c.a.Stride
	row := c.a.Blocks[c.blk].Data[off : off+c.a.Cols]
	if c.t++; c.t == c.a.Rows {
		c.blk, c.t = c.blk+1, 0
	}
	return row
}

// GEMM computes dst = a·b, then applies ep. dst must not alias a or b.
// Products past the crossover split across ws's kernel pool when one is
// attached (see Workspace.SetPool); output is bitwise-identical either way.
// ws may be nil: a one-off serial product, such as a training step's.
func GEMM(ws *Workspace, dst, a, b *Matrix, ep Epilogue) *Matrix {
	var blocks []*Matrix
	if ws == nil {
		blocks = []*Matrix{a}
	} else {
		blocks = ws.Matrices(1)
		blocks[0] = a
	}
	return GEMMBlocks(ws, dst, RowBlocks{Blocks: blocks, Rows: a.Rows, Cols: a.Cols, Stride: a.Cols}, b, ep)
}

// GEMMBlocks is GEMM with the left operand read in place through a (see
// RowBlocks): dst is (len(a.Blocks)·a.Rows)×b.Cols. As in GEMM, ws may be nil.
func GEMMBlocks(ws *Workspace, dst *Matrix, a RowBlocks, b *Matrix, ep Epilogue) *Matrix {
	a.check()
	m := len(a.Blocks) * a.Rows
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: gemm shape mismatch %dx%d · %dx%d", m, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != m || dst.Cols != b.Cols {
		panic("tensor: gemm dst shape mismatch")
	}
	if ep.Bias != nil && len(ep.Bias) != dst.Cols {
		panic(fmt.Sprintf("tensor: gemm epilogue bias length %d != cols %d", len(ep.Bias), dst.Cols))
	}
	if m == 0 {
		return dst
	}
	pool := ws.Pool()
	if panels := panelCount(m, a.Cols, b.Cols, pool.Threads()); panels > 1 {
		pool.gemm(dst, a, b, ep, panels)
	} else {
		gemmRows(dst, a, b, ep, 0, m)
	}
	return dst
}

// panelCount picks how many row panels to split m rows into: 1 (serial)
// below the crossover, else up to threads panels with at least one 4-row quad
// each.
func panelCount(m, k, n, threads int) int {
	if threads < 2 {
		return 1
	}
	if int64(m)*int64(k)*int64(n) < gemmParallelMinOps {
		return 1
	}
	quads := m / 4
	if quads < 2 {
		return 1
	}
	if threads > quads {
		threads = quads
	}
	return threads
}

// gemmRows computes dst rows [i0, i1): 4-row quads first — quadTiles takes the
// leading full assembly tiles when it can, tile2 the columns it leaves — then
// the <4-row tail in pairs, a last odd row paired with itself. i0 is always
// quad-aligned; only the last panel owns the tail.
func gemmRows(dst *Matrix, a RowBlocks, b *Matrix, ep Epilogue, i0, i1 int) {
	n := b.Cols
	cur := a.cursor(i0)
	i := i0
	for ; i+4 <= i1; i += 4 {
		r0, r1, r2, r3 := cur.next(), cur.next(), cur.next(), cur.next()
		d := dst.Data[i*n : (i+4)*n]
		j := quadTiles(r0, r1, r2, r3, b.Data, n, d, ep)
		tile2(r0, r1, b.Data, n, j, d[:n], d[n:2*n], ep)
		tile2(r2, r3, b.Data, n, j, d[2*n:3*n], d[3*n:], ep)
	}
	for ; i < i1; i += 2 {
		r0, d0 := cur.next(), dst.Row(i)
		r1, d1 := r0, d0
		if i+1 < i1 {
			r1, d1 = cur.next(), dst.Row(i+1)
		}
		tile2(r0, r1, b.Data, n, 0, d0, d1, ep)
	}
}

// tile2 is the portable tile: columns [j0, n) of the two output rows d0, d1
// (rows a0, a1 of the left operand against the k×n row-major b), 2×4 blocks
// with the eight sums in registers, then single columns. gc keeps 15 XMM
// registers, which is what bounds the block: 4×4 spills.
func tile2(a0, a1, b []float64, n, j0 int, d0, d1 []float64, ep Epilogue) {
	a1 = a1[:len(a0)]
	j := j0
	for ; j+4 <= n; j += 4 {
		var s00, s01, s02, s03, s10, s11, s12, s13 float64
		for k, x0 := range a0 {
			x1 := a1[k]
			bq := b[k*n+j:][:4]
			s00 += x0 * bq[0]
			s01 += x0 * bq[1]
			s02 += x0 * bq[2]
			s03 += x0 * bq[3]
			s10 += x1 * bq[0]
			s11 += x1 * bq[1]
			s12 += x1 * bq[2]
			s13 += x1 * bq[3]
		}
		e0, e1 := d0[j:j+4], d1[j:j+4]
		e0[0], e0[1], e0[2], e0[3] = ep.apply(s00, j), ep.apply(s01, j+1), ep.apply(s02, j+2), ep.apply(s03, j+3)
		e1[0], e1[1], e1[2], e1[3] = ep.apply(s10, j), ep.apply(s11, j+1), ep.apply(s12, j+2), ep.apply(s13, j+3)
	}
	for ; j < n; j++ {
		var s0, s1 float64
		for k, x0 := range a0 {
			bv := b[k*n+j]
			s0 += x0 * bv
			s1 += a1[k] * bv
		}
		d0[j], d1[j] = ep.apply(s0, j), ep.apply(s1, j)
	}
}

// Pool is a persistent set of GEMM worker goroutines shared by every shard of
// a serving hub. One pool serves any number of concurrent callers: a caller
// splits its product into row panels, keeps panel 0 for itself, queues the
// rest, then helps drain the shared queue (running other callers' panels too)
// until its own call completes — so threads stay busy even when callers
// outnumber workers, and a lone caller loses nothing. A nil *Pool is valid
// everywhere and means "serial" (Threads() == 1).
type Pool struct {
	threads int
	tasks   chan gemmTask

	mu   sync.Mutex
	free []*gemmCall

	closeOnce sync.Once
}

// gemmTask hands one row panel of one call to whichever executor dequeues it.
// It is a plain value on a buffered channel: dispatch allocates nothing.
type gemmTask struct {
	c     *gemmCall
	panel int32
}

// gemmCall is the per-dispatch rendezvous, pooled on a free list so steady
// state reuses warm objects. pending counts unfinished panels (all panels,
// caller's own included); wg counts only the queued ones the caller must wait
// out after the queue drains.
type gemmCall struct {
	dst, b  *Matrix
	a       RowBlocks
	ep      Epilogue
	nPanels int32
	pending atomic.Int32
	wg      sync.WaitGroup
}

// NewPool starts a pool with the given total parallelism, caller included:
// threads−1 worker goroutines are spawned, since the calling goroutine always
// executes panels itself. threads < 2 returns nil — the valid serial pool.
func NewPool(threads int) *Pool {
	if threads < 2 {
		return nil
	}
	p := &Pool{threads: threads, tasks: make(chan gemmTask, 4*threads)}
	for i := 0; i < threads-1; i++ {
		go p.worker()
	}
	return p
}

// Threads reports the pool's total parallelism including the caller; a nil
// pool is serial.
func (p *Pool) Threads() int {
	if p == nil {
		return 1
	}
	return p.threads
}

// Close stops the workers. Idempotent; safe on nil. Callers must have
// quiesced: a GEMM in flight during Close panics the pool.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.closeOnce.Do(func() { close(p.tasks) })
}

// worker executes queued panels until the pool closes.
func (p *Pool) worker() {
	for t := range p.tasks {
		t.c.run(t.panel)
		t.c.wg.Done()
	}
}

// gemm dispatches one product across panels row panels (panels >= 2).
// The caller runs panel 0, helps drain the queue, then waits out whatever is
// still in flight.
func (p *Pool) gemm(dst *Matrix, a RowBlocks, b *Matrix, ep Epilogue, panels int) {
	c := p.getCall()
	c.dst, c.a, c.b, c.ep = dst, a, b, ep
	c.nPanels = int32(panels)
	c.pending.Store(int32(panels))
	c.wg.Add(panels - 1)
	for i := int32(1); i < int32(panels); i++ {
		p.tasks <- gemmTask{c: c, panel: i}
	}
	c.run(0)
help:
	for c.pending.Load() > 0 {
		select {
		case t := <-p.tasks:
			t.c.run(t.panel)
			t.c.wg.Done()
		default:
			// Queue empty but panels still in flight with other executors:
			// nothing left to steal, wait them out.
			break help
		}
	}
	c.wg.Wait()
	p.putCall(c)
}

// run executes one panel of the call.
func (c *gemmCall) run(panel int32) {
	i0, i1 := c.panelRange(panel)
	gemmRows(c.dst, c.a, c.b, c.ep, i0, i1)
	c.pending.Add(-1)
}

// panelRange maps a panel index to its quad-aligned row range. Whole 4-row
// quads are distributed as evenly as possible; the last panel also owns the
// <4-row tail.
func (c *gemmCall) panelRange(panel int32) (int, int) {
	rows := c.dst.Rows
	quads := rows / 4
	n := int(c.nPanels)
	per, rem := quads/n, quads%n
	pi := int(panel)
	qs := pi*per + min(pi, rem)
	qe := qs + per
	if pi < rem {
		qe++
	}
	i0, i1 := qs*4, qe*4
	if pi == n-1 {
		i1 = rows
	}
	return i0, i1
}

// getCall pops a pooled rendezvous (or warms one up).
func (p *Pool) getCall() *gemmCall {
	p.mu.Lock()
	if l := len(p.free); l > 0 {
		c := p.free[l-1]
		p.free = p.free[:l-1]
		p.mu.Unlock()
		return c
	}
	p.mu.Unlock()
	return &gemmCall{}
}

// putCall returns a finished rendezvous to the free list, dropping its matrix
// and workspace references so pooled call objects never pin a shard's arena
// across ticks.
func (p *Pool) putCall(c *gemmCall) {
	c.dst, c.a, c.b, c.ep = nil, RowBlocks{}, nil, Epilogue{}
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}
