//go:build !(linux || darwin)

package stream

import "testing"

// oversizedFrame returns an n-byte frame from the heap, where no anonymous
// mapping is at hand.
func oversizedFrame(t *testing.T, n int) []byte { return make([]byte, n) }
