//go:build linux && amd64 && !purego

package tensor

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n float64s in a private mapping fenced by PROT_NONE pages,
// lying flush against the page after them (atEnd) or flush after the page
// before them, so a single byte read or written out of bounds on that side
// faults instead of landing in a neighbouring heap object.
func guarded(t *testing.T, n int, atEnd bool) []float64 {
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

// guardedCopy places a copy of src against a fence.
func guardedCopy(t *testing.T, src []float64, atEnd bool) []float64 {
	dst := guarded(t, len(src), atEnd)
	copy(dst, src)
	return dst
}

// TestGEMMGuardPages is the memory-safety pin for the assembly tile: every
// operand — each block of left-operand rows, b, dst, the bias — sits flush
// against an unmapped page, first at its end, then at its start, and the
// product runs at the serving shape and at the shapes with row and column
// tails. An access one byte outside what Go bounds-checked kills the test
// binary with a fault, every run, rather than corrupting a neighbour once in
// many; results are still checked against the naive loop.
func TestGEMMGuardPages(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2: the assembly tile does not run on this CPU")
	}
	rng := rand.New(rand.NewSource(8))
	for _, tc := range []struct{ blocks, rows, cols, stride, n int }{
		{50, 48, 80, 32, 32}, // the serving conv
		{3, 49, 80, 32, 32},  // quads straddle blocks
		{1, 4, 1, 1, 8},      // one tile, one step
		{1, 5, 5, 5, 9},
		{1, 7, 80, 80, 17},
		{2, 3, 5, 9, 7}, // no full tile at all: portable only
		{1, 257, 5, 5, 65},
		{1, 48, 300, 300, 16},
	} {
		for _, atEnd := range []bool{true, false} {
			a := RowBlocks{Blocks: make([]*Matrix, tc.blocks), Rows: tc.rows, Cols: tc.cols, Stride: tc.stride}
			for i := range a.Blocks {
				src := randMatrix(rng, 1, (tc.rows-1)*tc.stride+tc.cols)
				a.Blocks[i] = FromSlice(1, src.Cols, guardedCopy(t, src.Data, atEnd))
			}
			b := FromSlice(tc.cols, tc.n, guardedCopy(t, randMatrix(rng, tc.cols, tc.n).Data, atEnd))
			ep := Epilogue{Bias: guardedCopy(t, randBias(rng, tc.n), atEnd), ReLU: true}
			m := tc.blocks * tc.rows
			dst := FromSlice(m, tc.n, guarded(t, m*tc.n, atEnd))
			GEMMBlocks(nil, dst, a, b, ep)
			assertBitwise(t, naive(blockRows(a), b, ep), dst,
				fmt.Sprintf("%d blocks × %d rows × %d cols, stride %d, n %d, fence at end %v",
					tc.blocks, tc.rows, tc.cols, tc.stride, tc.n, atEnd))
		}
	}
}
