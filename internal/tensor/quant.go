package tensor

import (
	"fmt"
	"math"
)

// This file holds every float↔int8/int16 conversion kernel in the module.
// The module's conversion rule (TestInvariants, in the root package) holds
// that boundary: a float↔int8/int16 conversion anywhere else is a finding,
// and testdata/locks.golden lists none. Quantized consumers in internal/nn
// and internal/rf traffic exclusively in already-quantized values plus the
// helpers below, so scale handling — the part that silently corrupts
// accuracy when it drifts — is reviewable in one place.

// QMatrix is an int8-quantized weight matrix for y = x·W products, stored
// transposed (Out rows of In weights each) so the integer dot product streams
// one contiguous int8 row per output channel. Quantization is symmetric
// per output row: W[k][j] ≈ Data[j][k] · Scales[j], Scales[j] =
// maxabs(column j)/127. An all-zero column gets scale 0 and an all-zero row.
type QMatrix struct {
	In, Out int
	Data    []int8    // Out×In, row-major, row j = column j of the source
	Scales  []float32 // per-output-row dequantization scale
}

// QuantizeWeights quantizes an In×Out f64 weight matrix (the layout
// nn.Dense/Conv1D store) into a transposed int8 QMatrix. Done once at model
// load; inference never touches the f64 weights again.
func QuantizeWeights(w *Matrix) *QMatrix {
	q := &QMatrix{
		In:     w.Rows,
		Out:    w.Cols,
		Data:   make([]int8, w.Rows*w.Cols),
		Scales: make([]float32, w.Cols),
	}
	for j := 0; j < w.Cols; j++ {
		maxabs := 0.0
		for k := 0; k < w.Rows; k++ {
			if a := math.Abs(w.At(k, j)); a > maxabs {
				maxabs = a
			}
		}
		if maxabs == 0 {
			continue // scale 0, all-zero row
		}
		q.Scales[j] = float32(maxabs / 127)
		inv := 127 / maxabs
		row := q.Data[j*q.In : (j+1)*q.In]
		for k := 0; k < w.Rows; k++ {
			row[k] = int8(math.Round(w.At(k, j) * inv))
		}
	}
	return q
}

// MatMulQ computes dst = x·Wᵀq with int8×int8→int32 arithmetic and a fused
// epilogue: each x row is quantized symmetrically on the fly (per-row scale
// maxabs/127), dotted against every int8 weight row with int32 accumulation
// (safe to In ≈ 130k), then dequantized as acc·xscale·wscale before bias and
// ReLU apply. The result approximates GEMM(x, W) — callers gate it behind an
// agreement check against the exact f64 path.
func MatMulQ(ws *Workspace, dst, x *Matrix, q *QMatrix, ep Epilogue) *Matrix {
	if x.Cols != q.In {
		panic(fmt.Sprintf("tensor: matmulQ shape mismatch %dx%d · (%dx%d)ᵀ", x.Rows, x.Cols, q.Out, q.In))
	}
	if dst.Rows != x.Rows || dst.Cols != q.Out {
		panic("tensor: matmulQ dst shape mismatch")
	}
	if ep.Bias != nil && len(ep.Bias) != q.Out {
		panic(fmt.Sprintf("tensor: matmulQ epilogue bias length %d != cols %d", len(ep.Bias), q.Out))
	}
	xq := ws.Int8s(x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		maxabs := 0.0
		for _, v := range row {
			if a := math.Abs(v); a > maxabs {
				maxabs = a
			}
		}
		var xscale, inv float64
		if maxabs > 0 {
			xscale = maxabs / 127
			inv = 127 / maxabs
		}
		for k, v := range row {
			xq[k] = int8(math.Round(v * inv))
		}
		drow := dst.Row(i)
		for j := 0; j < q.Out; j++ {
			wrow := q.Data[j*q.In : (j+1)*q.In]
			var acc int32
			for k, xv := range xq {
				acc += int32(xv) * int32(wrow[k])
			}
			v := float64(acc) * xscale * float64(q.Scales[j])
			if ep.Bias != nil {
				v += ep.Bias[j]
			}
			if ep.ReLU && v <= 0 {
				v = 0
			}
			drow[j] = v
		}
	}
	return dst
}

// I16Map is a monotone affine float64→int16 mapping over [Lo, Hi], used to
// quantize decision-forest thresholds and feature values onto the same grid.
// Monotonicity (floor of an increasing affine map, then a monotone clamp)
// guarantees v <= t implies Quantize(v) <= Quantize(t), so a quantized
// traversal can only diverge from the f64 tree on near-tie comparisons —
// one-sided error the accuracy gate measures.
type I16Map struct {
	Lo    float64
	Scale float64 // quantization steps per unit; 0 maps everything to 0
}

// NewI16Map builds the mapping for values observed in [lo, hi]. A degenerate
// range (hi <= lo) maps every value to 0, which compares equal everywhere —
// correct for a feature whose thresholds are all identical.
func NewI16Map(lo, hi float64) I16Map {
	if !(hi > lo) {
		return I16Map{Lo: lo}
	}
	// Spread the observed range across most of the int16 domain, leaving
	// headroom so out-of-range values clamp without wrapping.
	return I16Map{Lo: lo, Scale: 60000 / (hi - lo)}
}

// Quantize maps a float64 value onto the int16 grid: floor, then clamp.
func (m I16Map) Quantize(v float64) int16 {
	if m.Scale == 0 {
		return 0
	}
	q := math.Floor((v - m.Lo) * m.Scale)
	q -= 30000
	if q < math.MinInt16 {
		return math.MinInt16
	}
	if q > math.MaxInt16 {
		return math.MaxInt16
	}
	return int16(q)
}

// QuantizeRow quantizes src into dst (same length) through per-column maps.
func QuantizeRowI16(dst []int16, src []float64, maps []I16Map) {
	if len(dst) != len(src) || len(src) != len(maps) {
		panic("tensor: QuantizeRowI16 length mismatch")
	}
	for i, v := range src {
		dst[i] = maps[i].Quantize(v)
	}
}
