// Package b is a dependency of package a: Slow blocks (transitively,
// through nap), Fast does not, and a's lock sites must tell them apart.
package b

import "time"

// Slow blocks: it sleeps via nap.
func Slow() { nap() }

func nap() { time.Sleep(time.Millisecond) }

// Fast is pure computation.
func Fast(x int) int { return x + 1 }
