package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randMatrix fills a matrix with a mix of normal values, exact zeros (the
// inputs MatMul skips and GEMM does not) and negatives (to exercise the ReLU
// clamp).
func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		switch rng.Intn(5) {
		case 0:
			m.Data[i] = 0
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// specials are the values salted into left operands: they propagate (NaN,
// Inf), cancel into NaN (Inf − Inf), overflow to Inf mid-sum (MaxFloat64),
// underflow to ±0 (±5e-324) or carry a sign the zero skip used to hide (−0).
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64,
}

// salt overwrites about one value in sixteen of at most every third row with
// a special, so most outputs stay finite and comparable by value.
func salt(rng *rand.Rand, m *Matrix) {
	for i := 0; i < m.Rows; i += 1 + rng.Intn(3) {
		for j := 0; j < m.Cols; j += 1 + rng.Intn(32) {
			m.Row(i)[j] = specials[rng.Intn(len(specials))]
		}
	}
}

// randBias is a bias with a −0 in it: +0 + −0 must stay +0.
func randBias(rng *rand.Rand, n int) []float64 {
	bias := make([]float64, n)
	for j := range bias {
		bias[j] = rng.NormFloat64()
	}
	if n > 0 {
		bias[rng.Intn(n)] = math.Copysign(0, -1)
	}
	return bias
}

// naive is the contract every GEMM path is compared against, written here so
// no kernel under test takes part in its own reference: per element
// `s += a*b` from +0 with k ascending, then the bias, then the clamp.
func naive(rows [][]float64, b *Matrix, ep Epilogue) *Matrix {
	dst := New(len(rows), b.Cols)
	for i, arow := range rows {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k, av := range arow {
				s += av * b.Data[k*b.Cols+j]
			}
			if ep.Bias != nil {
				s += ep.Bias[j]
			}
			if ep.ReLU && s <= 0 {
				s = 0
			}
			dst.Data[i*b.Cols+j] = s
		}
	}
	return dst
}

func matrixRows(a *Matrix) [][]float64 {
	rows := make([][]float64, a.Rows)
	for i := range rows {
		rows[i] = a.Row(i)
	}
	return rows
}

// blockRows materialises a RowBlocks view row by row.
func blockRows(a RowBlocks) [][]float64 {
	rows := make([][]float64, 0, len(a.Blocks)*a.Rows)
	for _, blk := range a.Blocks {
		for t := 0; t < a.Rows; t++ {
			rows = append(rows, blk.Data[t*a.Stride:t*a.Stride+a.Cols])
		}
	}
	return rows
}

func reference(a, b *Matrix, ep Epilogue) *Matrix { return naive(matrixRows(a), b, ep) }

// assertBitwise compares by bit pattern — so −0 ≠ +0 — except that a NaN may
// carry any payload as long as it sits where the reference has one.
func assertBitwise(t *testing.T, want, got *Matrix, label string) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(w) != math.Float64bits(g) && !(math.IsNaN(w) && math.IsNaN(g)) {
			t.Fatalf("%s: element %d (row %d col %d) differs: got %v (%#x) want %v (%#x)",
				label, i, i/want.Cols, i%want.Cols, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// portableGEMM runs the portable tile alone over every row pair, whatever the
// build: on amd64 it is the twin the assembly tile is compared with.
func portableGEMM(rows [][]float64, b *Matrix, ep Epilogue) *Matrix {
	dst := New(len(rows), b.Cols)
	for i := 0; i < len(rows); i += 2 {
		i1 := min(i+1, len(rows)-1)
		tile2(rows[i], rows[i1], b.Data, b.Cols, 0, dst.Row(i), dst.Row(i1), ep)
	}
	return dst
}

var tierNames = [...]string{tierPortable: "portable", tierAVX2: "avx2", tierAVX512: "avx512"}

// hostTiers lists the tiers this build and host run, widest first, for a test
// to set tier to in turn; the host's tier is back when the test ends.
func hostTiers(t *testing.T) []int {
	host := tier
	t.Cleanup(func() { tier = host })
	var tiers []int
	for tr := host; tr >= tierPortable; tr-- {
		tiers = append(tiers, tr)
	}
	return tiers
}

func epilogues(bias []float64) []Epilogue {
	return []Epilogue{{}, {Bias: bias}, {Bias: bias, ReLU: true}, {ReLU: true}}
}

func epLabel(ep Epilogue) string {
	return fmt.Sprintf("bias=%v relu=%v", ep.Bias != nil, ep.ReLU)
}

// testPools returns the kernel pools the differential tests rotate through:
// nil (serial) and 2, 3, 4 threads.
func testPools(t *testing.T) []*Pool {
	pools := []*Pool{nil, NewPool(2), NewPool(3), NewPool(4)}
	t.Cleanup(func() {
		for _, p := range pools {
			p.Close()
		}
	})
	return pools
}

// TestGEMMBitwiseEquivalence is the differential suite over plain matrices:
// GEMM at every tier the host has (the assembly tiles plus portable tails on
// amd64, the portable tile alone under -tags purego or elsewhere), the
// portable tile alone, and GEMM on a kernel pool must all equal the naive loop
// bit for bit, on every shape of the grid — row tails 0..3, column tails past
// 16- and 8-wide tiles, a 16-wide tile followed by an 8-wide one (n 24), empty
// and single-step sums, the serving K and the long im2col K —
// with salted inputs and all four epilogues. Pools rotate across shapes and
// tiers; -short thins the long sums so the race run stays quick.
func TestGEMMBitwiseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pools := testPools(t)
	tiers := hostTiers(t)
	ws, serial := NewWorkspace(), NewWorkspace() // serial never gets a pool
	turn := 0
	for _, m := range []int{0, 1, 3, 4, 5, 7, 48, 49, 257} {
		for _, k := range []int{0, 1, 5, 80, 300, 2325} {
			for _, n := range []int{1, 3, 7, 8, 9, 16, 17, 24, 32, 65, 150} {
				if testing.Short() && m*k*n > 1<<21 {
					continue
				}
				a := randMatrix(rng, m, k)
				salt(rng, a)
				b := randMatrix(rng, k, n)
				for _, ep := range epilogues(randBias(rng, n)) {
					want := reference(a, b, ep)
					label := fmt.Sprintf("%dx%dx%d %s", m, k, n, epLabel(ep))
					assertBitwise(t, want, portableGEMM(matrixRows(a), b, ep), label+" portable tile")
					for _, tr := range tiers {
						tier = tr
						tl := label + " tier " + tierNames[tr]
						serial.Reset()
						assertBitwise(t, want, GEMM(serial, serial.Uninit(m, n), a, b, ep), tl+" serial")

						turn++
						pool := pools[turn%len(pools)]
						ws.Reset()
						ws.SetPool(pool)
						assertBitwise(t, want, GEMM(ws, ws.Uninit(m, n), a, b, ep),
							fmt.Sprintf("%s pool=%d", tl, pool.Threads()))
					}
				}
			}
		}
	}
}

// TestGEMMBlocksBitwiseEquivalence covers the in-place left operand: blocks
// of 48 rows (quads never straddle blocks) and 49 rows (they do), with rows
// that overlap (stride < cols: the conv view), abut (stride = cols: the dense
// view) and skip data (stride > cols), at every tier on every pool size. The
// 50-block cases are past the crossover, so pooled runs really split.
func TestGEMMBlocksBitwiseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pools := testPools(t)
	tiers := hostTiers(t)
	ws, serial := NewWorkspace(), NewWorkspace() // serial never gets a pool
	for _, tc := range []struct{ blocks, rows, cols, stride, n int }{
		{50, 48, 80, 32, 32}, // the serving conv: 100×16 windows, k5 s2
		{50, 49, 80, 32, 32}, // window 101: OutT 49
		{7, 49, 80, 32, 17},
		{5, 48, 16, 16, 9}, // dense over 48×16 windows
		{5, 49, 16, 16, 8},
		{3, 49, 16, 48, 33}, // k1 s3
		{1, 48, 5, 7, 3},
		{4, 1, 32, 32, 4}, // a classifier head: one row per window
		{0, 48, 80, 32, 32},
	} {
		a := RowBlocks{Blocks: make([]*Matrix, tc.blocks), Rows: tc.rows, Cols: tc.cols, Stride: tc.stride}
		for i := range a.Blocks {
			a.Blocks[i] = randMatrix(rng, 1, (tc.rows-1)*tc.stride+tc.cols+rng.Intn(3))
			salt(rng, a.Blocks[i])
		}
		b := randMatrix(rng, tc.cols, tc.n)
		rows := blockRows(a)
		for _, ep := range epilogues(randBias(rng, tc.n)) {
			want := naive(rows, b, ep)
			for _, tr := range tiers {
				tier = tr
				label := fmt.Sprintf("%d blocks × %d rows × %d cols, stride %d, n %d, %s, tier %s",
					tc.blocks, tc.rows, tc.cols, tc.stride, tc.n, epLabel(ep), tierNames[tr])
				serial.Reset()
				assertBitwise(t, want, GEMMBlocks(serial, serial.Uninit(len(rows), tc.n), a, b, ep), label+" serial")
				for _, pool := range pools {
					ws.Reset()
					ws.SetPool(pool)
					assertBitwise(t, want, GEMMBlocks(ws, ws.Uninit(len(rows), tc.n), a, b, ep),
						fmt.Sprintf("%s pool=%d", label, pool.Threads()))
				}
			}
		}
	}
}

// TestGEMMBlocksRefusesShortBlock: a block too short for the view must panic
// before anything is computed, not read past it or write a partial result.
func TestGEMMBlocksRefusesShortBlock(t *testing.T) {
	a := RowBlocks{Blocks: []*Matrix{New(48, 16), New(47, 16)}, Rows: 48, Cols: 16, Stride: 16}
	dst := New(96, 4)
	dst.Fill(7)
	defer func() {
		if recover() == nil {
			t.Fatal("short block must panic")
		}
		for i, v := range dst.Data {
			if v != 7 {
				t.Fatalf("dst[%d] written before the panic", i)
			}
		}
	}()
	GEMMBlocks(NewWorkspace(), dst, a, New(16, 4), Epilogue{})
}

// TestPoolConcurrentCallers hammers one pool from more callers than it has
// threads — the shards-share-one-pool serving topology — and checks every
// result bitwise. Run with -race in CI.
func TestPoolConcurrentCallers(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(4))
	const callers = 8
	type job struct {
		a, b *Matrix
		want *Matrix
	}
	jobs := make([]job, callers)
	for i := range jobs {
		m := 64 + 4*i
		a := randMatrix(rng, m, 700)
		b := randMatrix(rng, 700, 24)
		jobs[i] = job{a: a, b: b, want: reference(a, b, Epilogue{})}
	}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			ws := NewWorkspace()
			ws.SetPool(pool)
			for iter := 0; iter < 50; iter++ {
				got := GEMM(ws, ws.Uninit(j.a.Rows, j.b.Cols), j.a, j.b, Epilogue{})
				for k := range j.want.Data {
					if got.Data[k] != j.want.Data[k] {
						errs <- fmt.Errorf("element %d differs under concurrency", k)
						return
					}
				}
				ws.Reset()
			}
		}(jobs[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPoolNilAndClose(t *testing.T) {
	var p *Pool
	if p.Threads() != 1 {
		t.Fatalf("nil pool Threads = %d, want 1", p.Threads())
	}
	p.Close() // must not panic
	if NewPool(1) != nil || NewPool(0) != nil {
		t.Fatal("NewPool(<2) must return the nil serial pool")
	}
	q := NewPool(2)
	if q.Threads() != 2 {
		t.Fatalf("Threads = %d, want 2", q.Threads())
	}
	q.Close()
	q.Close() // idempotent
}

func TestGEMMCrossover(t *testing.T) {
	if n := panelCount(4, 4, 4, 8); n != 1 {
		t.Fatalf("tiny product must stay serial, got %d panels", n)
	}
	// The serving product: 50 windows × 48 steps against 80×32.
	if n := panelCount(2400, 80, 32, 4); n != 4 {
		t.Fatalf("CNN fleet product should use all threads, got %d panels", n)
	}
	if n := panelCount(2400, 80, 32, 1); n != 1 {
		t.Fatalf("serial pool must stay serial, got %d panels", n)
	}
	// Its classifier head never pays a rendezvous.
	if n := panelCount(50, 32, 4, 4); n != 1 {
		t.Fatalf("classifier head must stay serial, got %d panels", n)
	}
	// Panels never outnumber quads.
	if n := panelCount(9, 60000, 60000, 8); n > 2 {
		t.Fatalf("9 rows = 2 quads, got %d panels", n)
	}
}

func BenchmarkGEMMSerial(b *testing.B) {
	benchmarkGEMM(b, nil)
}

func BenchmarkGEMMParallel2(b *testing.B) {
	pool := NewPool(2)
	defer pool.Close()
	benchmarkGEMM(b, pool)
}

func BenchmarkGEMMParallel4(b *testing.B) {
	pool := NewPool(4)
	defer pool.Close()
	benchmarkGEMM(b, pool)
}

// BenchmarkGEMMPortable is the tile every build without the assembly runs.
func BenchmarkGEMMPortable(b *testing.B) {
	a, w, ep := servingProduct()
	rows := matrixRows(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		portableGEMM(rows, w, ep)
	}
}

// servingProduct is the CNN fleet's conv product, materialised: (50 windows ×
// 48 steps) × (5 taps · 16 channels) against 32 filters, bias and ReLU fused.
func servingProduct() (a, w *Matrix, ep Epilogue) {
	rng := rand.New(rand.NewSource(5))
	return randMatrix(rng, 2400, 80), randMatrix(rng, 80, 32), Epilogue{Bias: make([]float64, 32), ReLU: true}
}

func benchmarkGEMM(b *testing.B, pool *Pool) {
	a, w, ep := servingProduct()
	ws := NewWorkspace()
	ws.SetPool(pool)
	dst := New(a.Rows, w.Cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		GEMM(ws, dst, a, w, ep)
	}
}

// BenchmarkGEMMBlocksServing is the same product read the way the conv layer
// reads it: 50 windows of 100×16 in place, 48 overlapping 80-value rows each.
func BenchmarkGEMMBlocksServing(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	_, w, ep := servingProduct()
	a := RowBlocks{Blocks: make([]*Matrix, 50), Rows: 48, Cols: 80, Stride: 32}
	for i := range a.Blocks {
		a.Blocks[i] = randMatrix(rng, 100, 16)
	}
	dst := New(2400, 32)
	ws := NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GEMMBlocks(ws, dst, a, w, ep)
	}
}
