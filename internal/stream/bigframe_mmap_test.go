//go:build linux || darwin

package stream

import (
	"syscall"
	"testing"
)

// oversizedFrame returns an n-byte frame backed by an anonymous mapping. The
// kernel commits a page only when it is touched, so a frame that WriteMsg
// refuses unread costs address space, not memory.
func oversizedFrame(t *testing.T, n int) []byte {
	t.Helper()
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(b) })
	return b
}
