// Command cogarmvet mechanically enforces cognitivearm's concurrency and
// quantization invariants. It runs two ways:
//
//	cogarmvet ./...                          standalone, whole module
//	go vet -vettool=$(which cogarmvet) ./... as a vet tool (CI form;
//	                                         also covers _test.go files)
//
// Analyzers: nolockblock (no blocking ops or nested locks inside mutex
// critical sections), quantsafe (quantized kernels stay within their
// calibrated domains). The serving path's allocation contract needs no
// analyzer: the compiler's escape analysis holds it against the repo's
// escape golden (testdata/escape.golden, TestEscapeGolden), and the
// AllocsPerRun tests measure what sits behind a call. Mixed atomic/plain
// access needs none either: the module uses only typed atomics, and CI
// greps for any raw sync/atomic call. Nor does telemetry: a nil obs handle
// is a no-op sink, so an unguarded use cannot panic. Nor does the WAL's
// append-only rule: a segment's write handle (wal/appendonly.File) has no
// method that reads, seeks or rewrites. See ARCHITECTURE.md "Static
// invariants", and //cogarm:allow <analyzer> -- <reason> for sanctioned
// exceptions.
package main

import (
	"cognitivearm/internal/analysis"
	"cognitivearm/internal/analysis/suite"
)

func main() {
	analysis.Main(suite.Analyzers)
}
