//go:build !amd64 || purego

package cpu

// HasAVX2 is false in a build without the assembly kernels.
const HasAVX2 = false
