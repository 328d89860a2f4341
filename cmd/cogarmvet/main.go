// Command cogarmvet mechanically enforces cognitivearm's concurrency and
// zero-allocation invariants. It runs two ways:
//
//	cogarmvet ./...                          standalone, whole module
//	go vet -vettool=$(which cogarmvet) ./... as a vet tool (CI form;
//	                                         also covers _test.go files)
//
// Analyzers: zeroalloc (functions annotated //cogarm:zeroalloc must not
// allocate, transitively), nolockblock (no blocking ops or nested locks inside mutex critical
// sections), quantsafe (quantized kernels stay within their calibrated
// domains). Mixed atomic/plain access needs no analyzer: the module uses
// only typed atomics, and CI greps for any raw sync/atomic call. Nor does
// telemetry: a nil obs handle is a no-op sink, so an unguarded use cannot
// panic. Nor does the WAL's append-only rule: a segment's write handle
// (wal/appendonly.File) has no method that reads, seeks or rewrites. See
// ARCHITECTURE.md "Static invariants" for the annotation grammar, and
// //cogarm:allow <analyzer> -- <reason> for sanctioned exceptions.
package main

import (
	"cognitivearm/internal/analysis"
	"cognitivearm/internal/analysis/suite"
)

func main() {
	analysis.Main(suite.Analyzers)
}
