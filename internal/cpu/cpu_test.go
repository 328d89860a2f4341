//go:build linux && amd64 && !purego

package cpu

import (
	"os"
	"regexp"
	"testing"
)

// TestGateAgreesWithKernel checks the CPUID/XGETBV reading against the flag
// list the kernel derived from the same registers (Linux lists avx2 and
// avx512f only when it also enables their register state), and logs the
// kernel set, so a -v run shows which tier the host covered.
func TestGateAgreesWithKernel(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	flags := regexp.MustCompile(`(?m)^flags\s*:.*$`).Find(info)
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	avx2 := regexp.MustCompile(`\bavx2\b`).Match(flags)
	avx512 := avx2 && regexp.MustCompile(`\bavx512f\b`).Match(flags)
	if HasAVX2 != avx2 {
		t.Fatalf("HasAVX2 = %v, /proc/cpuinfo says avx2 = %v", HasAVX2, avx2)
	}
	if HasAVX512 != avx512 {
		t.Fatalf("HasAVX512 = %v, /proc/cpuinfo says avx2 and avx512f = %v", HasAVX512, avx512)
	}
	want := "portable"
	switch {
	case avx512:
		want = "avx512"
	case avx2:
		want = "avx2"
	}
	if got := Kernels(); got != want {
		t.Fatalf("Kernels() = %q, /proc/cpuinfo says %q", got, want)
	}
	t.Logf("kernels: %s", want)
}
