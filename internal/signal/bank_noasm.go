//go:build !amd64 || purego

package signal

// processAVX2 is the build without an assembly routine: it computes nothing
// and leaves every column to processPortable.
func (b *Bank) processAVX2(x []float64) int { return 0 }
