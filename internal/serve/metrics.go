package serve

import (
	"fmt"
	"sort"
	"sync"

	"cognitivearm/internal/metrics"
)

// shardMetrics accumulates one shard's serving counters plus a bounded ring
// of recent tick latencies for the percentile snapshot.
type shardMetrics struct {
	mu         sync.Mutex
	ticks      uint64
	inferences uint64
	batches    uint64
	evictions  uint64
	samplesIn  uint64
	// lastTickNano is the wall time (UnixNano) of the most recent completed
	// tick; the health probe uses it to detect a shard that stopped ticking.
	lastTickNano int64

	lat     []float64 // ring of recent tick latencies (seconds)
	latIdx  int
	latFull bool
	// scratch is the reusable sort buffer for the percentile paths: p99()
	// and snapshot() copy the latency ring into it and sort in place, so
	// neither allocates once the buffer reaches the ring's size. Guarded by
	// mu; snapshot hands it out and the slice stays valid only until the
	// next p99/snapshot call (Hub.Snapshot copies it out immediately).
	scratch []float64

	// p99Cache memoises the admission-path percentile so bursts of Admit
	// calls (e.g. an inbound migration) do not re-sort the latency ring per
	// session; it refreshes after latency window/16 new ticks.
	p99Cache  float64
	p99AtTick uint64
	p99Valid  bool
}

func newShardMetrics(window int) shardMetrics {
	return shardMetrics{lat: make([]float64, window)}
}

// tick records a completed tick: its end (UnixNano wall time), its latency
// and the samples it drained.
func (m *shardMetrics) tick(endNano int64, latencySec float64, samplesIn uint64) {
	m.mu.Lock()
	m.ticks++
	m.samplesIn += samplesIn
	m.lastTickNano = endNano
	m.lat[m.latIdx] = latencySec
	m.latIdx++
	if m.latIdx == len(m.lat) {
		m.latIdx = 0
		m.latFull = true
	}
	m.mu.Unlock()
}

// p99 returns the 99th percentile of the retained tick latencies in seconds
// (0 until the shard has ticked). It is the backpressure signal admission
// consults before placing a session. The value is cached and refreshed only
// after the window has turned over by 1/16th, so admission bursts cost a map
// read, not a sort of the whole ring each.
func (m *shardMetrics) p99() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	refreshEvery := uint64(len(m.lat) / 16)
	if refreshEvery == 0 {
		refreshEvery = 1
	}
	if m.p99Valid && m.ticks-m.p99AtTick < refreshEvery {
		return m.p99Cache
	}
	lat := m.sortedLatenciesLocked()
	m.p99Cache = metrics.PercentileSorted(lat, 0.99)
	m.p99AtTick = m.ticks
	m.p99Valid = true
	return m.p99Cache
}

// sortedLatenciesLocked copies the retained latencies into the reusable
// scratch buffer and sorts it. Callers hold m.mu; the result is valid until
// the next call.
func (m *shardMetrics) sortedLatenciesLocked() []float64 {
	n := m.latIdx
	if m.latFull {
		n = len(m.lat)
	}
	if cap(m.scratch) < n {
		m.scratch = make([]float64, n, len(m.lat))
	}
	m.scratch = m.scratch[:n]
	copy(m.scratch, m.lat[:n])
	sort.Float64s(m.scratch)
	return m.scratch
}

// lastTickAt reports the UnixNano wall time of the most recent completed
// tick, 0 if the shard has never ticked.
func (m *shardMetrics) lastTickAt() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastTickNano
}

func (m *shardMetrics) batch(size int) {
	m.mu.Lock()
	m.batches++
	m.inferences += uint64(size)
	m.mu.Unlock()
}

func (m *shardMetrics) evict() {
	m.mu.Lock()
	m.evictions++
	m.mu.Unlock()
}

// snapshot returns the counters and appends the sorted retained latencies to
// pool, so the fleet aggregation reuses one pooled buffer instead of every
// shard allocating a copy. The sort runs in the metrics object's reusable
// scratch, entirely under the lock — nothing aliasing internal state
// escapes.
func (m *shardMetrics) snapshot(pool []float64) (ShardSnapshot, []float64) {
	m.mu.Lock()
	snap := ShardSnapshot{
		Ticks:      m.ticks,
		Inferences: m.inferences,
		Batches:    m.batches,
		Evictions:  m.evictions,
		SamplesIn:  m.samplesIn,
	}
	lat := m.sortedLatenciesLocked()
	snap.TickP50Ms = 1e3 * metrics.PercentileSorted(lat, 0.50)
	snap.TickP99Ms = 1e3 * metrics.PercentileSorted(lat, 0.99)
	pool = append(pool, lat...)
	m.mu.Unlock()
	if snap.Batches > 0 {
		snap.MeanBatch = float64(snap.Inferences) / float64(snap.Batches)
	}
	return snap, pool
}

// ShardSnapshot is one shard's point-in-time serving report.
type ShardSnapshot struct {
	Shard    int
	Sessions int
	// Ticks counts completed tick loops; SamplesIn counts raw samples
	// ingested across all sessions.
	Ticks     uint64
	SamplesIn uint64
	// Inferences counts classified windows; Batches counts batched
	// classifier calls, so MeanBatch = Inferences/Batches is the realised
	// cross-session coalescing factor.
	Inferences uint64
	Batches    uint64
	MeanBatch  float64
	Evictions  uint64
	// TickP50Ms / TickP99Ms are percentiles of recent tick wall latencies.
	TickP50Ms float64
	TickP99Ms float64
}

// String renders one shard's report as a log line.
func (s ShardSnapshot) String() string {
	return fmt.Sprintf("shard %d: %d sessions, %d ticks, %d inf in %d batches (mean %.1f), p50 %.3fms p99 %.3fms, %d evicted",
		s.Shard, s.Sessions, s.Ticks, s.Inferences, s.Batches, s.MeanBatch, s.TickP50Ms, s.TickP99Ms, s.Evictions)
}

// FleetSnapshot aggregates every shard: totals plus fleet-wide percentiles
// over the pooled recent tick latencies.
type FleetSnapshot struct {
	Sessions   int
	Ticks      uint64
	SamplesIn  uint64
	Inferences uint64
	Batches    uint64
	Evictions  uint64
	// RefusedFull counts admissions refused at the static per-shard cap;
	// RefusedOverload counts admissions refused by backpressure — shards had
	// capacity, but their p99 tick latency already crowded the tick budget.
	RefusedFull     uint64
	RefusedOverload uint64
	TickP50Ms       float64
	TickP99Ms       float64
	Shards          []ShardSnapshot
}

// String renders the fleet-wide headline as a log line.
func (f FleetSnapshot) String() string {
	mean := 0.0
	if f.Batches > 0 {
		mean = float64(f.Inferences) / float64(f.Batches)
	}
	s := fmt.Sprintf("fleet: %d sessions on %d shards, %d ticks, %d inferences (mean batch %.1f), tick p50 %.3fms p99 %.3fms",
		f.Sessions, len(f.Shards), f.Ticks, f.Inferences, mean, f.TickP50Ms, f.TickP99Ms)
	if f.RefusedFull+f.RefusedOverload > 0 {
		s += fmt.Sprintf(", refused %d full / %d overloaded", f.RefusedFull, f.RefusedOverload)
	}
	return s
}
