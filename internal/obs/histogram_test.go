package obs

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestHistogramBucketPlacement(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "placement", []float64{0.1, 1, 10})
	// le semantics: a value equal to a bound lands in that bound's bucket.
	for _, v := range []float64{0.05, 0.1, 0.5, 1, 2, 10, 11, 1e9} {
		h.Observe(v)
	}
	// The exposition's buckets are cumulative; difference them back.
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	var cum uint64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "h_bucket{") {
			continue
		}
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		got = append(got, v-cum)
		cum = v
	}
	want := []uint64{2, 2, 2, 2} // ≤0.1: {0.05, 0.1}; ≤1: {0.5, 1}; ≤10: {2, 10}; +Inf: {11, 1e9}
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if sum := h.Sum(); math.Abs(sum-(0.05+0.1+0.5+1+2+10+11+1e9)) > 1e-6 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := newHistogram(DurationBounds())
	h.ObserveDuration(1500) // 1.5µs
	if h.Count() != 1 {
		t.Fatal("duration observation lost")
	}
	if got := h.Sum(); math.Abs(got-1.5e-6) > 1e-12 {
		t.Fatalf("sum = %v, want 1.5e-6", got)
	}
}

func TestExponentialBounds(t *testing.T) {
	b := ExponentialBounds(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing factor must panic")
		}
	}()
	ExponentialBounds(1, 1, 4)
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds must panic")
		}
	}()
	newHistogram([]float64{1, 1})
}
