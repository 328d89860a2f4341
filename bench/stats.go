package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cognitivearm/internal/metrics"
)

// median returns the middle of xs (mean of the two middles for even n); 0
// when empty. The input is not modified.
func median(xs []float64) float64 {
	return metrics.Percentile(xs, 0.5)
}

// minBeyond is the sample count the percentile rule wants past a quantile
// before it trusts it: with fewer, one slow tick moves the number.
const minBeyond = 10

// supportedPercentile returns the highest of the candidate percentiles that
// still has at least minBeyond of n samples beyond it — the choosing-metrics
// rule every latency in this benchmark is reported under. 450 paced ticks
// support p95 (22 beyond) but not p99 (4.5). 0 means not even the median is
// supported.
func supportedPercentile(n int) float64 {
	best := 0.0
	// The share beyond each candidate in thousandths, so the test is exact.
	for _, c := range []struct {
		p      float64
		beyond int
	}{{50, 500}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}} {
		if n*c.beyond >= minBeyond*1000 {
			best = c.p
		}
	}
	return best
}

// quantiles sorts a copy of xs once and reads several quantiles (0..1) off it.
func quantiles(xs []float64, ps ...float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = metrics.PercentileSorted(sorted, p)
	}
	return out
}

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("bench: VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/self/status")
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) (int64, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, de := range des {
		info, err := de.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
