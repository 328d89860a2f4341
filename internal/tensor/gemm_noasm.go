//go:build !amd64 || purego

package tensor

func hostTier() int { return tierPortable }

// quadTiles is the build without an assembly tile: it computes nothing and
// leaves every column to the portable tile.
func quadTiles(r0, r1, r2, r3, b []float64, n int, d []float64, ep Epilogue) int { return 0 }
