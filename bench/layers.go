package main

import (
	"fmt"
	"time"
)

// spanCapacity sizes the span buffer for the traced pass: a flat-out rf tick
// records one span per session plus one per shard plus itself, ~1500 times a
// second, and tracing is on for half the pass.
func spanCapacity(p params) int {
	n := int(p.seconds*80_000) + 4096
	if n > 1<<20 {
		n = 1 << 20
	}
	return n
}

// tickCost is one traced tick taken apart: its TickAll span, and the drain
// and inference spans the shards recorded under it.
type tickCost struct {
	tickNs, drainNs, inferNs int64
	windows                  int // windows classified
}

// tickCosts groups the spans of each traced tick. When the buffer filled
// (truncated), the last tick recorded is left out: its children are
// incomplete.
func tickCosts(spans []span, truncated bool) []tickCost {
	byTick := map[int32]*tickCost{}
	last := int32(0)
	for _, s := range spans {
		if s.name != spanTick && s.parent == noSpan {
			continue // recorded outside any tick
		}
		c := byTick[s.tick]
		if c == nil {
			c = &tickCost{}
			byTick[s.tick] = c
		}
		switch s.name {
		case spanTick:
			c.tickNs = s.end - s.start
		case spanDrain:
			c.drainNs += s.end - s.start
		case spanInfer:
			c.inferNs += s.end - s.start
			c.windows += int(s.arg)
		}
		if s.tick > last {
			last = s.tick
		}
	}
	if truncated {
		delete(byTick, last)
	}
	out := make([]tickCost, 0, len(byTick))
	for _, c := range byTick {
		if c.tickNs > 0 {
			out = append(out, *c)
		}
	}
	return out
}

// runTraced produces the per-layer metrics: a traced pass over half the run
// length (tracing on for every other cycle), the recovery epilogue taken
// apart on durable-rf, then the stand-alone probes of the layers this
// workload leans on. Layers a workload bypasses report 0.
func (r *rig) runTraced(res *result) error {
	for _, m := range perLayer {
		res.set(m[0], 0, 0)
	}
	win, err := r.runWindow(r.p.seconds/2, true)
	if err != nil {
		return err
	}
	shards := float64(r.hub.Config().Shards)

	costs := tickCosts(r.tr.recorded(), r.tr.dropped.Load() > 0)
	if len(costs) == 0 {
		return fmt.Errorf("bench: traced pass recorded no complete tick")
	}
	var tickMs, drainUs, inferUs, selfUs, inferShare []float64
	var inferNs, windows int64
	for _, c := range costs {
		// Shards run side by side, so one tick's wall time holds each shard's
		// drain and inference once: per-shard means, not sums.
		drain, infer := float64(c.drainNs)/shards, float64(c.inferNs)/shards
		tickMs = append(tickMs, float64(c.tickNs)/1e6)
		drainUs = append(drainUs, drain/1e3)
		inferUs = append(inferUs, infer/1e3)
		selfUs = append(selfUs, (float64(c.tickNs)-drain-infer)/1e3)
		inferShare = append(inferShare, 100*infer/float64(c.tickNs))
		inferNs += c.inferNs
		windows += int64(c.windows)
	}
	q := quantiles(tickMs, 0.50, 0.95)
	res.set("serve.tick_ms_p50", q[0], len(tickMs))
	res.set("serve.tick_ms_p95", q[1], len(tickMs))
	res.set("serve.drain_us_per_tick", median(drainUs), len(drainUs))
	res.set("serve.self_us_per_tick", median(selfUs), len(selfUs))
	if windows > 0 {
		res.set("models.infer_us_per_window", float64(inferNs)/float64(windows)/1e3, int(windows))
		res.set("models.infer_share_pct", median(inferShare), len(inferShare))
	}
	// Each tick's three parts add up exactly; their medians need not. The
	// residual says by how much.
	parts := median(drainUs) + median(inferUs) + median(selfUs)
	res.note("traced ticks %d (dropped spans %d); tick p50 %.1f us vs drain %.1f + infer %.1f + self %.1f (per-shard means): residual %.1f %%",
		len(costs), r.tr.dropped.Load(), 1e3*q[0], median(drainUs), median(inferUs), median(selfUs), 100*(1e3*q[0]-parts)/(1e3*q[0]))

	var mallocs uint64
	var ticks int
	for _, c := range win.cycles {
		mallocs += c.mallocs
		ticks += c.ticks
	}
	snap := r.hub.Snapshot()
	res.set("serve.allocs_per_tick", float64(mallocs)/float64(ticks), ticks)
	if snap.Batches > 0 {
		res.set("serve.mean_batch", float64(snap.Inferences)/float64(snap.Batches), int(snap.Batches))
	}
	var slowest, sum float64
	for _, s := range snap.Shards {
		sum += s.TickP50Ms
		if s.TickP50Ms > slowest {
			slowest = s.TickP50Ms
		}
	}
	if mean := sum / float64(len(snap.Shards)); mean > 0 {
		// TickAll waits for the slowest shard: its excess over the mean shard
		// is time every decision pays.
		res.set("serve.shard_skew_pct", 100*(slowest-mean)/mean, len(snap.Shards))
	}

	// What tracing cost: the untraced cycles of this same pass against the
	// traced ones, on the metric that can move (rate, or CPU when paced).
	on, off := reduce(win.cycles, true), reduce(win.cycles, false)
	switch {
	case on.n == 0 || off.n == 0:
	case r.w.paced:
		res.set("bench.trace_overhead_pct", 100*(on.cpuPerK/off.cpuPerK-1), on.n+off.n)
	default:
		res.set("bench.trace_overhead_pct", 100*(off.perSec/on.perSec-1), on.n+off.n)
	}

	if len(r.flushUs) > 0 {
		res.set("serve.journal_flush_us_per_tick", median(r.flushUs)/flushEvery, len(r.flushUs))
		res.set("serve.journal_bytes_per_tick", median(r.flushBytes)/flushEvery, len(r.flushBytes))
	}
	if r.w.paced {
		r.pacedLayers(res)
	}
	if r.w.durable {
		r.tr.on.Store(true)
		if _, err := r.epilogue(); err != nil {
			return err
		}
		r.tr.on.Store(false)
		r.durableLayers(res)
	}
	if err := r.probes(res, time.Duration(r.p.seconds/4*float64(time.Second))); err != nil {
		return err
	}
	if r.p.traceOut != "" {
		if err := r.tr.writeFile(r.p.traceOut); err != nil {
			return fmt.Errorf("bench: write trace: %w", err)
		}
	}
	return nil
}

// pacedLayers reports what only the open-loop workload can see: the wire and
// ring-wait stamps of the sampled datagrams, backlog, drops, and how late the
// generator and the tick driver ran against their schedules.
func (r *rig) pacedLayers(res *result) {
	g := r.udp
	g.halt()
	var wireUs, waitMs []float64
	for i, src := range g.srcs {
		for _, st := range src.stamps {
			arrived, ok := g.inlets[i].ArrivalTime(st.seq)
			if !ok {
				continue
			}
			wireUs = append(wireUs, 1e6*(arrived-st.due))
			waitMs = append(waitMs, 1e3*(st.drained-arrived))
		}
	}
	if len(wireUs) > 0 {
		q := quantiles(wireUs, 0.50, 0.95)
		res.set("stream.wire_to_ring_us_p50", q[0], len(wireUs))
		res.set("stream.wire_to_ring_us_p95", q[1], len(wireUs))
		res.set("stream.ring_wait_ms_p50", median(waitMs), len(waitMs))
	}
	if len(r.backlog) > 0 {
		res.set("stream.ring_backlog_samples_p95", quantiles(r.backlog, 0.95)[0], len(r.backlog))
	}
	c := g.conserve()
	res.set("stream.dropped_frames", float64(c.droppedFrames), int(c.sent))
	res.set("stream.ring_overwrites", float64(c.overwrites), int(c.sent))
	res.set("stream.samples_lost", float64(c.lost), int(c.sent))
	r.ops.attempted += int(c.sent)
	r.ops.failed += int(c.lost)
	res.set("bench.generator_lag_ms_p95", quantiles(g.lagMs, 0.95)[0], len(g.lagMs))
	res.set("bench.tick_start_lag_ms_p95", quantiles(r.startLag, 0.95)[0], len(r.startLag))
}

// durableLayers reports the write side (checkpoints, replication sweeps) and
// the read side (the three stages of recovery) of the durability path.
func (r *rig) durableLayers(res *result) {
	set := func(name string, xs []float64) {
		if len(xs) > 0 {
			res.set(name, median(xs), len(xs))
		}
	}
	set("checkpoint.full_ms", r.ckptFullMs)
	set("checkpoint.full_bytes", r.ckptFullB)
	set("checkpoint.incremental_ms", r.ckptIncrMs)
	set("checkpoint.incremental_bytes", r.ckptIncrB)
	set("checkpoint.load_ms", r.loadMs)
	set("wal.replay_ms", r.replayMs)
	set("serve.restore_ms", r.restMs)
	set("cluster.replicate_ms_per_sweep", r.replMs)
	res.set("cluster.replicate_errors", float64(r.replErrs), len(r.replMs)+r.replErrs)
}
