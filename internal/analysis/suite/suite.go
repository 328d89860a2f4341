// Package suite is the single registry of cogarmvet analyzers, shared by
// cmd/cogarmvet and the self-check test so the binary and CI can never
// disagree about what is enforced.
package suite

import (
	"cognitivearm/internal/analysis"
	"cognitivearm/internal/analysis/nolockblock"
	"cognitivearm/internal/analysis/quantsafe"
	"cognitivearm/internal/analysis/zeroalloc"
)

// Analyzers is every invariant cogarmvet enforces, in reporting order.
var Analyzers = []*analysis.Analyzer{
	zeroalloc.Analyzer,
	nolockblock.Analyzer,
	quantsafe.Analyzer,
}
