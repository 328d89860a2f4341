//go:build amd64 && !purego

package dataset

import "cognitivearm/internal/cpu"

// featureBlock8 is what accumulate8AVX2 leaves for eight adjacent channels:
// per channel the sum, the sum of squares and the extremes of its column.
type featureBlock8 struct {
	sum, sq, lo, hi [8]float64
}

// accumulate8AVX2 walks rows ≥ 1 rows of a row-major window cols wide once,
// in AVX2 without FMA, for the eight columns starting at data: per column
// sum += v and sq += v·v (the product rounded before the add) in ascending
// row order, and columnMinMax's first-smallest/first-largest under < and >.
// It reads data[r·cols : r·cols+8] for r < rows, writes *acc, and touches no
// other byte.
//
//go:noescape
func accumulate8AVX2(data *float64, rows, cols int, acc *featureBlock8)

// features8 appends the features of the leading nch&^7 channels, eight per
// pass of the assembly routine, and returns out and the first channel it left
// for the portable kernels: 0 without AVX2 or for an empty window. The
// pointer passed down is element 0 of a slice Go has bounds-checked to
// exactly the extent accumulate8AVX2 touches.
func features8(out, data []float64, rows, nch int) ([]float64, int) {
	if !cpu.HasAVX2 || rows == 0 {
		return out, 0
	}
	n := float64(rows)
	var acc featureBlock8
	c := 0
	for ; c+8 <= nch; c += 8 {
		d := data[c : c+(rows-1)*nch+8]
		accumulate8AVX2(&d[0], rows, nch, &acc)
		for k := 0; k < 8; k++ {
			out = appendFeatures(out, acc.sum[k], acc.sq[k], n, acc.lo[k], acc.hi[k])
		}
	}
	return out, c
}
