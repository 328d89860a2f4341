// Package tensor provides the minimal dense linear-algebra substrate used by
// the CognitiveArm deep-learning stack. It implements row-major float64
// matrices with the handful of kernels (element-wise and row-wise ops,
// softmax, and one float64 multiply, the GEMM tile of gemm.go) required by
// the Dense, Conv1D, LSTM and attention layers in internal/nn. Training and
// inference multiply through the same GEMM; only the int8 MatMulQ is apart.
//
// The package is deliberately small and allocation-conscious: all hot kernels
// accept destination buffers so the serving path can reuse memory across
// ticks.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero-initialised Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (length must equal rows*cols) without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a sub-slice (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to zero in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// String implements fmt.Stringer with a compact shape-prefixed rendering.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// Stack concatenates same-shape matrices row-wise into one (len(xs)·Rows)×Cols
// matrix — the batch-major layout nn's row-wise batched kernels process in one
// pass (GEMM operands are not stacked: see RowBlocks).
func Stack(xs []*Matrix) *Matrix {
	if len(xs) == 0 {
		panic("tensor: Stack of empty batch")
	}
	r, c := xs[0].Rows, xs[0].Cols
	out := New(len(xs)*r, c)
	for i, x := range xs {
		if x.Rows != r || x.Cols != c {
			panic(fmt.Sprintf("tensor: Stack shape mismatch %dx%d vs %dx%d", x.Rows, x.Cols, r, c))
		}
		copy(out.Data[i*r*c:], x.Data)
	}
	return out
}

// SplitRows slices m into m.Rows/rowsPer consecutive views of rowsPer rows
// each, sharing m's storage (no copy) — the inverse of Stack for handing a
// fused kernel's output back to per-window consumers.
func SplitRows(m *Matrix, rowsPer int) []*Matrix {
	if rowsPer < 1 || m.Rows%rowsPer != 0 {
		panic(fmt.Sprintf("tensor: SplitRows %d does not divide %d rows", rowsPer, m.Rows))
	}
	n := m.Rows / rowsPer
	out := make([]*Matrix, n)
	per := rowsPer * m.Cols
	for i := range out {
		out[i] = FromSlice(rowsPer, m.Cols, m.Data[i*per:(i+1)*per])
	}
	return out
}

// Add computes dst = a + b element-wise. dst may alias a or b or be nil.
func Add(dst, a, b *Matrix) *Matrix {
	checkSameShape("Add", a, b)
	if dst == nil {
		dst = New(a.Rows, a.Cols)
	}
	checkSameShape("Add dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return dst
}

// Sub computes dst = a − b element-wise. dst may alias a or b or be nil.
func Sub(dst, a, b *Matrix) *Matrix {
	checkSameShape("Sub", a, b)
	if dst == nil {
		dst = New(a.Rows, a.Cols)
	}
	checkSameShape("Sub dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
	return dst
}

// Mul computes dst = a ⊙ b (Hadamard product). dst may alias a or b or be nil.
func Mul(dst, a, b *Matrix) *Matrix {
	checkSameShape("Mul", a, b)
	if dst == nil {
		dst = New(a.Rows, a.Cols)
	}
	checkSameShape("Mul dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
	return dst
}

// Scale multiplies every element of m by s in place and returns m.
func Scale(m *Matrix, s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// ColSums accumulates the column sums of m into dst (length Cols). Each sum
// starts at +0 and adds the rows in order, as the naive row-by-row loop
// does, so the bits are the same; but the sums stay in registers, eight
// columns at a time (eight independent add chains, where four leave the
// adder waiting: 50 windows of 48×32 take 42 µs against 62 µs with four and
// 80 µs storing to dst per row), instead of round-tripping through dst.
func ColSums(dst []float64, m *Matrix) {
	c := m.Cols
	if len(dst) != c {
		panic("tensor: ColSums dst length mismatch")
	}
	data := m.Data[:m.Rows*c]
	j := 0
	for ; j+8 <= c; j += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for off := j; off < len(data); off += c {
			q := data[off:][:8]
			s0 += q[0]
			s1 += q[1]
			s2 += q[2]
			s3 += q[3]
			s4 += q[4]
			s5 += q[5]
			s6 += q[6]
			s7 += q[7]
		}
		d := dst[j:][:8]
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; j < c; j++ {
		var s float64
		for off := j; off < len(data); off += c {
			s += data[off]
		}
		dst[j] = s
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Softmax writes the softmax of src into dst (same length). It is numerically
// stabilised by subtracting the maximum.
func Softmax(dst, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: Softmax length mismatch")
	}
	maxv := math.Inf(-1)
	for _, v := range src {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(v - maxv)
		dst[i] = e
		sum += e
	}
	if sum == 0 {
		u := 1.0 / float64(len(dst))
		for i := range dst {
			dst[i] = u
		}
		return
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// SoftmaxRows applies Softmax to each row of m in place.
func SoftmaxRows(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		Softmax(row, row)
	}
}

// Argmax returns the index of the maximum element of v (first on ties), or -1
// for an empty slice.
func Argmax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best, bi := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, bi = x, i+1
		}
	}
	return bi
}

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Std returns the population standard deviation of v.
func Std(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	mu := Mean(v)
	var s float64
	for _, x := range v {
		d := x - mu
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
