//go:build linux

// Package guardpage is test support for the assembly kernels behind the cpu
// gate: operands that lie flush against unmapped memory, so a kernel that
// touches one byte outside what Go bounds-checked faults the test binary on
// every run instead of corrupting a neighbouring heap object once in many.
package guardpage

import (
	"syscall"
	"testing"
	"unsafe"
)

// Floats returns n float64s in a private mapping fenced by PROT_NONE pages,
// lying flush against the page after them (atEnd) or flush after the page
// before them. The mapping is released when the test ends.
func Floats(t testing.TB, n int, atEnd bool) []float64 {
	t.Helper()
	if n == 0 {
		return nil
	}
	page := syscall.Getpagesize()
	size := n * 8
	body := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, body+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	for _, fence := range [][]byte{mem[:page], mem[page+body:]} {
		if err := syscall.Mprotect(fence, syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	data := mem[page : page+size]
	if atEnd {
		data = mem[page+body-size : page+body]
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&data[0])), n)
}

// Copy places a copy of src against a fence.
func Copy(t testing.TB, src []float64, atEnd bool) []float64 {
	dst := Floats(t, len(src), atEnd)
	copy(dst, src)
	return dst
}
