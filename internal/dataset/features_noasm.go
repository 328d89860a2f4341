//go:build !amd64 || purego

package dataset

// features8 is the build without an assembly routine: it appends nothing and
// leaves every channel to the portable kernels.
func features8(out, data []float64, rows, nch int) ([]float64, int) { return out, 0 }
