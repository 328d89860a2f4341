package serve

import (
	"fmt"
	"time"

	"cognitivearm/internal/obs"
)

// serveObs bundles the hub's process-global telemetry handles, resolved once
// at NewHub from the obs.Default registry so the tick path touches only
// direct atomic pointers — no lookups, no locks, no allocations. Several
// hubs in one process (tests, loadgen cluster mode) share the same series;
// the registry's idempotent registration makes that aggregation, not a
// collision.
//
// A nil *serveObs disables telemetry entirely (Config.DisableTelemetry):
// every instrumentation site is nil-guarded, including the stage clock
// reads, so the disabled path measures the true uninstrumented cost —
// that is the baseline benchtables' telemetry-off column records.
type serveObs struct {
	ticks      *obs.Counter
	samples    *obs.Counter
	catchUp    *obs.Counter
	inferences *obs.Counter
	batches    *obs.Counter
	admissions *obs.Counter
	evictions  *obs.Counter

	refusedFull     *obs.Counter
	refusedOverload *obs.Counter

	sessions *obs.Gauge

	tick        *obs.Histogram
	stageDrain  *obs.Histogram
	stageWindow *obs.Histogram
	stageInfer  *obs.Histogram
	stageDecide *obs.Histogram
	batchSize   *obs.Histogram

	events *obs.EventRing
}

// newServeObs resolves the serving metric set on the process-global
// registry.
func newServeObs() *serveObs {
	reg := obs.Default()
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("cogarm_serve_tick_stage_seconds",
			"Per-stage shard tick breakdown: drain (source reads), window (filter+normalise+push), infer (batched classification), decide (debounce+counters).",
			obs.DurationBounds(), obs.L("stage", name))
	}
	return &serveObs{
		ticks: reg.Counter("cogarm_serve_ticks_total",
			"Completed shard ticks across all shards."),
		samples: reg.Counter("cogarm_serve_samples_total",
			"Raw samples ingested across all sessions."),
		catchUp: reg.Counter("cogarm_serve_catchup_samples_total",
			"Samples buffered sessions drained beyond the rate schedule's due, catching up on a backlog."),
		inferences: reg.Counter("cogarm_serve_inferences_total",
			"Classified windows (one per ready session per tick)."),
		batches: reg.Counter("cogarm_serve_batches_total",
			"Batched classifier calls; inferences/batches is the realised coalescing factor."),
		admissions: reg.Counter("cogarm_serve_admissions_total",
			"Sessions admitted (includes migration-in restores)."),
		evictions: reg.Counter("cogarm_serve_evictions_total",
			"Sessions evicted (idle timeout or explicit Evict)."),
		refusedFull: reg.Counter("cogarm_serve_refused_total",
			"Admissions refused, by reason: full = static capacity cap, overload = p99 backpressure.",
			obs.L("reason", "full")),
		refusedOverload: reg.Counter("cogarm_serve_refused_total",
			"Admissions refused, by reason: full = static capacity cap, overload = p99 backpressure.",
			obs.L("reason", "overload")),
		sessions: reg.Gauge("cogarm_serve_sessions",
			"Live sessions currently admitted."),
		tick: reg.Histogram("cogarm_serve_tick_seconds",
			"Whole shard tick wall latency.", obs.DurationBounds()),
		stageDrain:  stage("drain"),
		stageWindow: stage("window"),
		stageInfer:  stage("infer"),
		stageDecide: stage("decide"),
		batchSize: reg.Histogram("cogarm_serve_batch_size",
			"Windows per batched classifier call.", obs.SizeBounds()),
		events: obs.DefaultEvents(),
	}
}

// Health probes the hub for the admin plane's /healthz (and, eventually, the
// failure detector): it returns nil while every shard is serving within its
// latency budget and an error naming the first problem otherwise. A shard is
// unhealthy when its paced loop should be running but is not, when it has
// stopped ticking for several tick periods, or when its p99 tick latency
// exceeds the whole tick budget (1/TickHz) — past the point where admission
// backpressure (90% of budget) already refuses new sessions.
func (h *Hub) Health() error {
	budget := 1 / h.cfg.TickHz
	h.mu.Lock()
	running := h.running
	h.mu.Unlock()
	for _, s := range h.shards {
		if running && !s.isRunning() {
			return fmt.Errorf("shard %d: tick loop not running", s.id)
		}
		if running {
			if last := s.met.lastTickAt(); last > 0 {
				stale := time.Since(time.Unix(0, last)).Seconds()
				if lim := 10 * budget; stale > lim && stale > 2 {
					return fmt.Errorf("shard %d: no tick for %.1fs (budget %.0fms)", s.id, stale, 1e3*budget)
				}
			}
		}
		if p99 := s.met.p99(); p99 > budget {
			return fmt.Errorf("shard %d overloaded: tick p99 %.2fms exceeds tick budget %.2fms",
				s.id, 1e3*p99, 1e3*budget)
		}
	}
	return nil
}
