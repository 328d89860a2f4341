//go:build linux && amd64 && !purego

package cpu

import (
	"os"
	"regexp"
	"testing"
)

// TestGateAgreesWithKernel checks the CPUID/XGETBV reading against the flag
// list the kernel derived from the same registers.
func TestGateAgreesWithKernel(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	flags := regexp.MustCompile(`(?m)^flags\s*:.*$`).Find(info)
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	want := regexp.MustCompile(`\bavx2\b`).Match(flags)
	if HasAVX2 != want {
		t.Fatalf("HasAVX2 = %v, /proc/cpuinfo says avx2 = %v", HasAVX2, want)
	}
	if got := Kernels(); (got == "avx2") != want {
		t.Fatalf("Kernels() = %q with avx2 = %v", got, want)
	}
}
