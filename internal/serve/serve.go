// Package serve is CognitiveArm's concurrent multi-session serving layer:
// one Hub owns a fleet of closed-loop EEG sessions and runs them on a small,
// fixed set of worker shards instead of a goroutine (or a whole process) per
// subject.
//
// # Architecture
//
// The seed system deploys one core.System per subject: its own board, its
// own freshly trained classifier, its own tick loop. That shape cannot reach
// the ROADMAP's production scale — training is repeated per deploy, models
// are duplicated per user, and loop goroutines multiply with the fleet. The
// hub inverts all three axes:
//
//   - Registry (registry.go) trains or deserialises each model exactly once
//     and shares it read-only across every session. Inference-mode forward
//     passes write no layer state (internal/nn) and forest traversal is
//     pure (internal/rf), so no lock sits on the hot path.
//
//   - Shards (shard.go) partition the fleet across N workers, each with one
//     tick-loop goroutine at TickHz. A tick pulls each session's due samples
//     through its Windower (filter → normalise → rolling window), then
//     coalesces every ready window into one batched classifier call per
//     model — cross-session batching, which turns S per-session Predict
//     dispatches into one PredictBatchWS whose tree-major forest traversal
//     amortises cache misses over the whole batch. The entire tick runs out
//     of a per-shard arena (tickArena: sample pop buffers, ready tables,
//     classifier groups, label slices, and the tensor.Workspace every
//     batched kernel draws scratch from), so steady-state serving performs
//     zero heap allocations per tick — see ARCHITECTURE.md "Memory model".
//     Admission control caps sessions per shard; sessions whose sources go
//     silent are evicted gracefully after MaxIdleTicks.
//
//   - Metrics (metrics.go) aggregate per-shard and fleet-wide p50/p99 tick
//     latency, throughput counters and drop/eviction counts, built on
//     internal/metrics percentiles, so capacity planning reads off one
//     snapshot.
//
// Sessions ingest from any Source, whose one method is ReadInto: a
// board.SyntheticCyton (synthetic subjects, used by tests and cmd/loadgen's
// cluster drill), or a RingSource over an internal/stream UDP/LSL inlet ring
// (networked subjects, used by cmd/cogarmd).
//
// Hubs run in two modes: Start launches paced shard loops for daemons, and
// TickAll advances every shard once for caller-paced benchmarks and tests.
//
// # Persistence
//
// The hub is durable serving infrastructure, not a cache: Journal.Checkpoint
// (journal.go) snapshots the whole fleet — registry models, every session's
// rolling window, per-channel IIR filter delay state, debounce ring,
// counters and shard assignment, plus samples still buffered in source
// rings — into a versioned, CRC-checked checkpoint directory via
// internal/checkpoint, and RestoreHub rebuilds a hub from one so a restarted
// daemon resumes without retraining and emits bitwise-identical labels for
// the same subsequent input. Capture (persist.go) encodes each session's
// state straight into the caller's reused arena under its shard lock, and
// never holds one across disk or network I/O, so paced tick loops do not
// stall. Every checkpoint is a full, self-contained snapshot. The incremental
// path is the journal's flush: sessions carry a mutation counter, and a flush
// captures only the sessions that ingested samples since the previous one, so
// what is written between checkpoints scales with churn, not fleet size. See
// ARCHITECTURE.md for the on-disk format specifications.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"cognitivearm/internal/control"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/metrics"
	"cognitivearm/internal/obs"
	"cognitivearm/internal/tensor"
)

// Config sizes a Hub. Start from DefaultConfig; a zero Shards/KernelThreads
// auto-sizes from GOMAXPROCS, but MaxSessionsPerShard and TickHz must be set.
type Config struct {
	// Shards is the number of worker shards (and tick-loop goroutines).
	// 0 derives min(GOMAXPROCS, MaxAutoShards), so a deploy sized for the
	// host needs no tuning; negative is an error.
	Shards int
	// KernelThreads sizes the hub's shared tensor kernel pool — the workers
	// large batched GEMMs split row panels across (internal/tensor.Pool).
	// 0 derives it from the cores the shard loops leave idle —
	// GOMAXPROCS − Shards + 1, at least 1 (no pool) and at most
	// MaxAutoKernelThreads; 1 forces the serial kernels. Labels are
	// bitwise-identical at any setting, so this is purely a throughput knob.
	KernelThreads int
	// MaxSessionsPerShard bounds admission; the fleet capacity is
	// Shards × MaxSessionsPerShard.
	MaxSessionsPerShard int
	// TickHz is the classification rate of every shard loop (the paper's
	// 15 Hz action-label rate by default).
	TickHz float64
	// MaxIdleTicks evicts a session after this many consecutive ticks with
	// no samples from its source. 0 disables idle eviction.
	MaxIdleTicks int
	// LatencyWindow is how many recent tick latencies each shard retains for
	// the percentile snapshot.
	LatencyWindow int
	// DisableTelemetry gives the hub nil telemetry handles, which are no-op
	// sinks: it records no internal/obs series and no lifecycle events. The
	// serving path is the same either way (the stage clocks still run), and
	// so is serving behaviour; leave it false in production, the telemetry
	// path is allocation-free.
	DisableTelemetry bool
}

// DefaultConfig returns a laptop-scale hub: 4 shards × 256 sessions at the
// paper's 15 Hz label rate.
func DefaultConfig() Config {
	return Config{
		Shards:              4,
		MaxSessionsPerShard: 256,
		TickHz:              control.ClassifyRateHz,
		MaxIdleTicks:        0,
		LatencyWindow:       512,
	}
}

// MaxAutoShards caps the Shards==0 GOMAXPROCS derivation: beyond this,
// extra tick loops add scheduling churn without batching benefit.
const MaxAutoShards = 8

// MaxAutoKernelThreads caps the KernelThreads==0 derivation. The serving
// GEMMs saturate memory bandwidth before they run out of cores, so the auto
// pool stays small.
const MaxAutoKernelThreads = 4

// autoSize derives a worker count from GOMAXPROCS, capped.
func autoSize(cap int) int {
	n := runtime.GOMAXPROCS(0)
	if n > cap {
		n = cap
	}
	if n < 1 {
		n = 1
	}
	return n
}

// kernelThreadCount resolves cfg.KernelThreads (0 = auto) once cfg.Shards is
// resolved.
func kernelThreadCount(cfg Config) int {
	if cfg.KernelThreads > 0 {
		return cfg.KernelThreads
	}
	return autoKernelThreads(runtime.GOMAXPROCS(0), cfg.Shards)
}

// autoKernelThreads sizes the kernel pool for a hub whose shards tick loops
// run on procs cores: a GEMM's caller always computes a panel itself, so the
// parallelism on offer is that caller plus the cores no shard loop occupies.
// When the shard loops already fill the machine that is 1 — no pool, because
// a rendezvous with workers that have no core to run on only costs.
func autoKernelThreads(procs, shards int) int {
	return max(1, min(procs-shards+1, MaxAutoKernelThreads))
}

// ErrFleetFull is returned by Admit when every shard is at capacity.
var ErrFleetFull = fmt.Errorf("serve: fleet at capacity")

// ErrFleetOverloaded is returned by Admit when shards have session capacity
// left but their tick latency already crowds the tick budget — admitting more
// load would make every session on the shard miss its classification rate.
var ErrFleetOverloaded = errors.New("serve: fleet overloaded (tick latency budget exhausted)")

// maxP99Frac is the fraction of the tick budget a shard's p99 tick latency
// may reach before admission stops placing new sessions on it. At the
// paper's 15 Hz the budget is ~66.7 ms, so a shard refuses beyond a ~60 ms
// p99 — before it overruns, not after.
const maxP99Frac = 0.9

// SessionID identifies an admitted session for eviction and stats lookups.
type SessionID uint64

// Hub owns the fleet: a model registry, N shards, and the admission index.
type Hub struct {
	cfg Config
	reg *Registry
	// tel is the hub's process-global telemetry handle set, never nil (a
	// zero serveObs of no-op handles when Config.DisableTelemetry); shards
	// share it for the tick-path series.
	tel *serveObs

	// refusedFull / refusedOverload count admissions refused at the static
	// cap and at the latency budget respectively, surfaced in FleetSnapshot.
	refusedFull     atomic.Uint64
	refusedOverload atomic.Uint64

	mu      sync.Mutex
	shards  []*shard
	nextID  SessionID
	running bool
	// pool is the hub-owned kernel worker pool shared by every shard's tick
	// workspace (nil = serial kernels). Stop detaches it from the shards and
	// closes it; Start recreates it, so a stopped hub ticks serially.
	pool *tensor.Pool

	// idxMu guards index alone. It is a leaf lock (never held while taking
	// another), so shards can remove idle-evicted sessions from the index
	// while holding their own lock without an ABBA deadlock against Admit's
	// hub-then-shard ordering.
	idxMu sync.Mutex
	index map[SessionID]*shard
}

// NewHub builds a hub around an existing registry (so several hubs — or a
// hub and offline evaluation — can share one trained model set).
func NewHub(cfg Config, reg *Registry) (*Hub, error) {
	if cfg.Shards == 0 {
		cfg.Shards = autoSize(MaxAutoShards)
	}
	if cfg.Shards < 1 || cfg.MaxSessionsPerShard < 1 {
		return nil, fmt.Errorf("serve: need >= 1 shard (%d) and >= 1 session per shard (%d)",
			cfg.Shards, cfg.MaxSessionsPerShard)
	}
	if cfg.TickHz <= 0 {
		return nil, fmt.Errorf("serve: tick rate must be positive (%g)", cfg.TickHz)
	}
	if cfg.LatencyWindow < 1 {
		cfg.LatencyWindow = DefaultConfig().LatencyWindow
	}
	if reg == nil {
		reg = NewRegistry()
	}
	h := &Hub{cfg: cfg, reg: reg, index: map[SessionID]*shard{}, tel: &serveObs{}}
	if !cfg.DisableTelemetry {
		h.tel = newServeObs()
	}
	// The kernel pool exists from construction (TickAll-paced hubs never call
	// Start). tensor.NewPool returns nil for a single thread, which every
	// consumer treats as "serial".
	h.pool = tensor.NewPool(kernelThreadCount(cfg))
	for i := 0; i < cfg.Shards; i++ {
		s := newShard(i, cfg)
		s.tel = h.tel
		s.pool = h.pool
		// Shard-initiated evictions (idle timeout) must also leave the
		// admission index, or churning clients leak an entry each.
		s.onEvict = h.dropIndex
		h.shards = append(h.shards, s)
	}
	return h, nil
}

// dropIndex removes an evicted session from the admission index.
func (h *Hub) dropIndex(id SessionID) {
	h.idxMu.Lock()
	delete(h.index, id)
	h.idxMu.Unlock()
}

// Registry exposes the hub's shared model registry.
func (h *Hub) Registry() *Registry { return h.reg }

// Config returns the hub's serving configuration. For a hub built by
// RestoreHub this is the checkpoint manifest's topology, which overrides
// whatever the restarting caller would otherwise have configured.
func (h *Hub) Config() Config { return h.cfg }

// Admit validates the session config, resolves its shared classifier from
// the registry, and places the session on the least-loaded shard. It returns
// ErrFleetFull when every shard is at its static cap and ErrFleetOverloaded
// when capacity exists but every candidate shard's p99 tick latency already
// crowds the tick budget — refusals of both kinds are counted in
// FleetSnapshot.
func (h *Hub) Admit(sc SessionConfig) (SessionID, error) {
	clf, _, ok := h.reg.Get(sc.ModelKey)
	if !ok {
		return 0, fmt.Errorf("serve: model %q not in registry (have %v)", sc.ModelKey, h.reg.Keys())
	}
	if sc.Source == nil {
		return 0, fmt.Errorf("serve: session needs a sample source")
	}
	if sc.Channels <= 0 {
		sc.Channels = eeg.NumChannels
	}
	if sc.SampleRateHz <= 0 {
		sc.SampleRateHz = eeg.SampleRate
	}
	win, err := control.NewWindower(sc.SampleRateHz, sc.Channels, clf.WindowSize(), sc.Norm)
	if err != nil {
		return 0, err
	}
	return h.admitSession(&session{cfg: sc, clf: clf, win: win}, true)
}

// admitSession assigns a fresh ID to a fully built session and registers it
// on the least-loaded shard (pickShard). It is the shared tail of Admit,
// RestoreSession (migration-in) and PromoteSession (failover).
func (h *Hub) admitSession(sess *session, backpressure bool) (SessionID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	idx, err := h.pickShard(backpressure)
	switch err {
	case ErrFleetFull:
		h.refusedFull.Add(1)
		h.tel.refusedFull.Inc()
		h.tel.events.Record(obs.EvRefuseFull, -1, 0, 0, 0)
		return 0, err
	case ErrFleetOverloaded:
		h.refusedOverload.Add(1)
		h.tel.refusedOverload.Inc()
		h.tel.events.Record(obs.EvRefuseOverload, -1, 0, 0, 0)
		return 0, err
	}
	h.nextID++
	sess.id = h.nextID
	target := h.shards[idx]
	target.add(sess)
	//cogarm:allow nolockblock -- idxMu is a documented leaf lock (see field comment); hub.mu→idxMu is the one fixed order and idxMu is never held across a call
	h.idxMu.Lock()
	h.index[sess.id] = target
	h.idxMu.Unlock()
	h.tel.admissions.Inc()
	h.tel.events.Record(obs.EvAdmit, idx, uint64(sess.id), 0, 0)
	return sess.id, nil
}

// pickShard returns the shard with the fewest sessions among those under
// their static cap and, with backpressure, whose recent p99 tick latency is
// within maxP99Frac of the tick budget: shards that crowd the budget refuse
// before they overrun. It returns ErrFleetOverloaded when capacity exists
// only on such shards, else ErrFleetFull. Callers hold h.mu.
func (h *Hub) pickShard(backpressure bool) (int, error) {
	limit := maxP99Frac * (1 / h.cfg.TickHz)
	best, bestSessions, overloaded := -1, 0, false
	for i, s := range h.shards {
		n := s.len()
		if n >= h.cfg.MaxSessionsPerShard {
			continue
		}
		if backpressure && s.met.p99() > limit {
			overloaded = true
			continue
		}
		if best < 0 || n < bestSessions {
			best, bestSessions = i, n
		}
	}
	switch {
	case best >= 0:
		return best, nil
	case overloaded:
		return 0, ErrFleetOverloaded
	default:
		return 0, ErrFleetFull
	}
}

// SourceAddrByTag reports the local ingest address (e.g. a UDP inlet's bound
// address) of the live session carrying tag, when its source exposes one via
// AddrSource. The cluster redirect protocol serves this to re-homing
// streamers so they can re-point at the promoted session's inlet without
// operator involvement. The address is read outside the shard lock — sources
// may consult sockets to answer.
func (h *Hub) SourceAddrByTag(tag string) (string, bool) {
	var src Source
	for _, s := range h.shards {
		s.mu.Lock()
		for _, sess := range s.sessions {
			if sess.cfg.Tag == tag {
				src = sess.cfg.Source
				break
			}
		}
		s.mu.Unlock()
		if src != nil {
			break
		}
	}
	if src == nil {
		return "", false
	}
	if as, ok := src.(AddrSource); ok {
		if addr := as.SourceAddr(); addr != "" {
			return addr, true
		}
	}
	return "", false
}

// SessionKeys returns a point-in-time map of live session IDs to their Tags —
// the routing view a cluster layer uses to decide which sessions move when
// ring membership changes.
func (h *Hub) SessionKeys() map[SessionID]string {
	out := make(map[SessionID]string, h.Sessions())
	for _, s := range h.shards {
		s.mu.Lock()
		for id, sess := range s.sessions {
			out[id] = sess.cfg.Tag
		}
		s.mu.Unlock()
	}
	return out
}

// Evict removes a session gracefully: the shard drops it at the next tick
// boundary and closes its source if it implements io.Closer.
func (h *Hub) Evict(id SessionID) error {
	h.idxMu.Lock()
	s, ok := h.index[id]
	if ok {
		delete(h.index, id)
	}
	h.idxMu.Unlock()
	if !ok {
		return fmt.Errorf("serve: session %d not found", id)
	}
	s.requestEvict(id)
	return nil
}

// Sessions returns the fleet-wide live session count.
func (h *Hub) Sessions() int {
	n := 0
	for _, s := range h.shards {
		n += s.len()
	}
	return n
}

// Session returns a point-in-time view of one session's decode counters.
func (h *Hub) Session(id SessionID) (SessionStats, bool) {
	h.idxMu.Lock()
	s, ok := h.index[id]
	h.idxMu.Unlock()
	if !ok {
		return SessionStats{}, false
	}
	return s.sessionStats(id)
}

// Start launches every shard's paced tick loop, recreating the kernel pool
// when a previous Stop released it. It is idempotent.
func (h *Hub) Start() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.running {
		return
	}
	h.running = true
	if h.pool == nil {
		h.pool = tensor.NewPool(kernelThreadCount(h.cfg))
		for _, s := range h.shards {
			s.setPool(h.pool)
		}
	}
	for _, s := range h.shards {
		s.start()
	}
}

// Stop halts the shard loops, closes every remaining session, and releases
// the kernel pool (its worker goroutines exit; shards fall back to the
// serial kernels if ticked again). The hub may be restarted with Start.
func (h *Hub) Stop() {
	h.mu.Lock()
	running := h.running
	h.running = false
	pool := h.pool
	h.pool = nil
	h.mu.Unlock()
	for _, s := range h.shards {
		if running {
			s.stopLoop()
		}
		// Detach before closing the pool: a later tick on a stopped hub must
		// not enqueue onto closed workers.
		s.setPool(nil)
		s.closeAll()
	}
	pool.Close()
}

// TickAll advances every shard by exactly one tick and waits for all of
// them, running shards concurrently as the paced loops would. It is the
// caller-paced mode used by benchmarks and deterministic tests; do not mix
// with Start.
func (h *Hub) TickAll() {
	var wg sync.WaitGroup
	for _, s := range h.shards {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			s.tick()
		}(s)
	}
	wg.Wait()
}

// Snapshot aggregates per-shard and fleet-wide serving metrics.
func (h *Hub) Snapshot() FleetSnapshot {
	shardSnaps := make([]ShardSnapshot, 0, len(h.shards))
	var pooled []float64
	var fleet FleetSnapshot
	for _, s := range h.shards {
		var snap ShardSnapshot
		snap, pooled = s.snapshot(pooled)
		shardSnaps = append(shardSnaps, snap)
		fleet.Sessions += snap.Sessions
		fleet.Ticks += snap.Ticks
		fleet.Inferences += snap.Inferences
		fleet.Batches += snap.Batches
		fleet.Evictions += snap.Evictions
		fleet.SamplesIn += snap.SamplesIn
	}
	fleet.Shards = shardSnaps
	fleet.RefusedFull = h.refusedFull.Load()
	fleet.RefusedOverload = h.refusedOverload.Load()
	sort.Float64s(pooled)
	fleet.TickP50Ms = 1e3 * metrics.PercentileSorted(pooled, 0.50)
	fleet.TickP99Ms = 1e3 * metrics.PercentileSorted(pooled, 0.99)
	return fleet
}
