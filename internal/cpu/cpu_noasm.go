//go:build !amd64 || purego

package cpu

// HasAVX2 and HasAVX512 are false in a build without the assembly kernels.
const (
	HasAVX2   = false
	HasAVX512 = false
)
