package suite_test

import (
	"strings"
	"testing"

	"cognitivearm/internal/analysis"
	"cognitivearm/internal/analysis/suite"
)

// TestModuleClean is the meta-test behind the CI gate: the whole module —
// the annotated hot-path set included — must pass every analyzer with zero
// diagnostics. A regression that slips an allocation into a
// //cogarm:zeroalloc kernel, blocks under a shard lock, or leaves a
// quantized kernel's calibrated domain fails here (and in the vettool CI
// job) before any bench notices.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the whole module; skipped in -short runs")
	}
	var out strings.Builder
	n, err := analysis.RunStandalone([]string{"cognitivearm/..."}, suite.Analyzers, &out)
	if err != nil {
		t.Fatalf("standalone driver: %v", err)
	}
	if n != 0 {
		t.Errorf("module is not vet-clean: %d diagnostics\n%s", n, out.String())
	}
}
