// Package tensor provides the minimal dense linear-algebra substrate used by
// the CognitiveArm deep-learning stack. It implements row-major float64
// matrices with the handful of kernels (matmul, transpose, broadcast ops,
// im2col-style unfolding) required by the Dense, Conv1D, LSTM and attention
// layers in internal/nn.
//
// The package is deliberately small and allocation-conscious: all hot kernels
// accept destination buffers so the training loop can reuse memory across
// steps.
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
//
//cogarm:zeroalloc
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
//
//cogarm:zeroalloc
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a sub-slice (shared storage).
//
//cogarm:zeroalloc
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to zero in place.
//
//cogarm:zeroalloc
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v in place.
//
//cogarm:zeroalloc
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// String implements fmt.Stringer with a compact shape-prefixed rendering.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// MatMul computes dst = a·b. dst may be nil, in which case a fresh matrix is
// allocated. dst must not alias a or b.
//
//cogarm:zeroalloc
func MatMul(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst == nil {
		//cogarm:allow zeroalloc -- nil dst selects the unpooled heap path by contract
		dst = New(a.Rows, b.Cols)
	} else {
		if dst.Rows != a.Rows || dst.Cols != b.Cols {
			panic("tensor: matmul dst shape mismatch")
		}
		dst.Zero()
	}
	// ikj loop order: stream through b rows for cache locality.
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				drow[j] += aik * brow[j]
			}
		}
	}
	return dst
}

// MatMulTransB computes dst = a·bᵀ without materialising the transpose.
//
//cogarm:zeroalloc
func MatMulTransB(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTransB shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst == nil {
		//cogarm:allow zeroalloc -- nil dst selects the unpooled heap path by contract
		dst = New(a.Rows, b.Rows)
	} else {
		if dst.Rows != a.Rows || dst.Cols != b.Rows {
			panic("tensor: matmulTransB dst shape mismatch")
		}
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
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

// MatMulTransA computes dst = aᵀ·b without materialising the transpose.
//
//cogarm:zeroalloc
func MatMulTransA(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTransA shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst == nil {
		//cogarm:allow zeroalloc -- nil dst selects the unpooled heap path by contract
		dst = New(a.Cols, b.Cols)
	} else {
		if dst.Rows != a.Cols || dst.Cols != b.Cols {
			panic("tensor: matmulTransA dst shape mismatch")
		}
		dst.Zero()
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, aki := range arow {
			if aki == 0 {
				continue
			}
			drow := dst.Row(i)
			for j := range brow {
				drow[j] += aki * brow[j]
			}
		}
	}
	return dst
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

// Transpose returns a new matrix that is the transpose of m.
func Transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
	return out
}

// Add computes dst = a + b element-wise. dst may alias a or b or be nil.
//
//cogarm:zeroalloc
func Add(dst, a, b *Matrix) *Matrix {
	checkSameShape("Add", a, b)
	if dst == nil {
		//cogarm:allow zeroalloc -- nil dst selects the unpooled heap path by contract
		dst = New(a.Rows, a.Cols)
	}
	checkSameShape("Add dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return dst
}

// Sub computes dst = a − b element-wise. dst may alias a or b or be nil.
//
//cogarm:zeroalloc
func Sub(dst, a, b *Matrix) *Matrix {
	checkSameShape("Sub", a, b)
	if dst == nil {
		//cogarm:allow zeroalloc -- nil dst selects the unpooled heap path by contract
		dst = New(a.Rows, a.Cols)
	}
	checkSameShape("Sub dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
	return dst
}

// Mul computes dst = a ⊙ b (Hadamard product). dst may alias a or b or be nil.
//
//cogarm:zeroalloc
func Mul(dst, a, b *Matrix) *Matrix {
	checkSameShape("Mul", a, b)
	if dst == nil {
		//cogarm:allow zeroalloc -- nil dst selects the unpooled heap path by contract
		dst = New(a.Rows, a.Cols)
	}
	checkSameShape("Mul dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
	return dst
}

// Scale multiplies every element of m by s in place and returns m.
//
//cogarm:zeroalloc
func Scale(m *Matrix, s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddRowVector adds vector v (length Cols) to every row of m in place.
//
//cogarm:zeroalloc
func AddRowVector(m *Matrix, v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector length %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// ColSums accumulates the column sums of m into dst (length Cols).
//
//cogarm:zeroalloc
func ColSums(dst []float64, m *Matrix) {
	if len(dst) != m.Cols {
		panic("tensor: ColSums dst length mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			dst[j] += row[j]
		}
	}
}

// Dot returns the inner product of two equal-length vectors.
//
//cogarm:zeroalloc
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

// Norm2 returns the Euclidean norm of v.
//
//cogarm:zeroalloc
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Softmax writes the softmax of src into dst (same length). It is numerically
// stabilised by subtracting the maximum.
//
//cogarm:zeroalloc
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
//
//cogarm:zeroalloc
func SoftmaxRows(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		Softmax(row, row)
	}
}

// Argmax returns the index of the maximum element of v (first on ties), or -1
// for an empty slice.
//
//cogarm:zeroalloc
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
//
//cogarm:zeroalloc
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
