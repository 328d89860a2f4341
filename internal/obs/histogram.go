package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket latency/size histogram built for hot paths:
// Observe is lock-free and allocation-free — a binary search over the
// immutable bounds slice, two atomic adds, and a CAS loop for the float sum.
// Buckets are chosen at registration (log-scale by convention, see
// ExponentialBounds) and never change, so readers and writers share nothing
// mutable but the atomics.
//
// Snapshot-consistency note: a scrape that races writers may observe a sum,
// count and bucket set from slightly different instants. Each value is
// individually consistent and monotone, which is exactly the guarantee
// Prometheus counters need; cross-field skew of a few observations is
// inherent to lock-free collection and irrelevant at scrape cadence.
//
// A nil handle is a no-op sink: Observe and ObserveDuration on a nil
// *Histogram return at once.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; +Inf bucket is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; the final slot is +Inf.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ObserveDuration records a duration given in nanoseconds as seconds — the
// convention every *_seconds histogram in the stack uses.
func (h *Histogram) ObserveDuration(ns int64) { h.Observe(float64(ns) / 1e9) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExponentialBounds returns n upper bounds starting at start and multiplying
// by factor — the log-scale ladders the stack's histograms use.
func ExponentialBounds(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExponentialBounds needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBounds is the default latency ladder: 1 µs to ~8.4 s in
// doubling buckets — wide enough for a microsecond-scale tick stage and a
// multi-second stalled checkpoint in the same shape.
func DurationBounds() []float64 { return ExponentialBounds(1e-6, 2, 24) }

// SizeBounds is the default size/count ladder: 1 to 2048 in doubling
// buckets (batch sizes, record counts).
func SizeBounds() []float64 { return ExponentialBounds(1, 2, 12) }
