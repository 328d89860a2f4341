package obs

import (
	"testing"
)

// TestHotPathAllocFree is the core zero-alloc guarantee: every operation a
// serving tick performs against the telemetry layer must stay off the heap.
func TestHotPathAllocFree(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	reg := NewRegistry()
	c := reg.Counter("alloc_total", "")
	g := reg.Gauge("alloc_gauge", "")
	h := reg.Histogram("alloc_seconds", "", DurationBounds())
	ring := NewEventRing(64, 4)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(17) }},
		{"Gauge.Set", func() { g.Set(3.5) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Gauge.Inc", func() { g.Inc() }},
		{"Gauge.Dec", func() { g.Dec() }},
		{"Histogram.Observe", func() { h.Observe(2.5e-4) }},
		{"Histogram.ObserveDuration", func() { h.ObserveDuration(1500) }},
		{"EventRing.Record", func() { ring.Record(EvAdmit, 1, 2, 3, 4) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

// TestNilHandlesAreNoOps pins the no-op sink: every write method on a nil
// handle returns without panicking and without allocating, so a component
// whose telemetry is off calls its handles unconditionally.
func TestNilHandlesAreNoOps(t *testing.T) {
	var (
		c    *Counter
		g    *Gauge
		h    *Histogram
		ring *EventRing
	)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(17) }},
		{"Gauge.Set", func() { g.Set(3.5) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Gauge.Inc", func() { g.Inc() }},
		{"Gauge.Dec", func() { g.Dec() }},
		{"Histogram.Observe", func() { h.Observe(2.5e-4) }},
		{"Histogram.ObserveDuration", func() { h.ObserveDuration(1500) }},
		{"EventRing.Record", func() { ring.Record(EvAdmit, 1, 2, 3, 4) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.fn()
			if testing.CoverMode() != "" {
				return // coverage instrumentation allocates
			}
			if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
				t.Errorf("%v allocs/op on a nil handle, want 0", n)
			}
		})
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", DurationBounds())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func BenchmarkEventRingRecord(b *testing.B) {
	ring := NewEventRing(DefaultEventCapacity, DefaultEventStripes)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ring.Record(EvAdmit, 1, 2, 0, 0)
		}
	})
}
