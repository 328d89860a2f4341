package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/cluster"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/stream"
	"cognitivearm/internal/wal"
)

// workload is one row of the suite; BENCHMARK.json carries the why of each.
type workload struct {
	name  string
	model string
	// paced: open loop over loopback UDP at 15 Hz, journal flushed from a side
	// goroutine. Otherwise closed loop over replay sources, ticks back to back.
	paced bool
	// durable: flush + replicate every flushEvery ticks and checkpoint every
	// cycleTicks on the caller's thread, inside the measured window.
	durable bool
}

var workloads = []workload{
	{name: "flatout-rf", model: "rf"},
	{name: "flatout-cnn", model: "cnn"},
	{name: "paced-udp-rf", model: "rf", paced: true},
	{name: "durable-rf", model: "rf", durable: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// flushEvery is cogarmd's journal/replication cadence in ticks (2 s).
	flushEvery = 30
	// cycleTicks is the checkpoint cadence (30 s of ticks) and the unit every
	// closed-loop rate is a median over: one cycle holds 15 flushes and one
	// checkpoint, so cycles are comparable with each other.
	cycleTicks = 450
	// tailFlushes is how many flushed intervals the recovery epilogue leaves
	// in the WAL past its checkpoint — half a checkpoint interval, the mean
	// tail a crash finds.
	tailFlushes = 7
	// contTicks is how long the continuation check follows a restored fleet.
	contTicks = 30
	// recoverGap is the idle time before each timed recovery.
	recoverGap = 200 * time.Millisecond
	// pacedWarmTicks is one second on schedule: set-up's warm-up and the
	// epilogue's WAL tail on the paced workload, where every tick costs 67 ms
	// of wall clock.
	pacedWarmTicks = 15
)

// params is one run of one workload.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	sessions int
	traced   bool
	traceOut string
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// restores is how many recoveries the epilogue times.
	restores int
	// tmp is where WAL, checkpoint and result files go (inside the checkout).
	tmp string
}

// ops counts what the run attempted and what failed: decisions due and not
// produced, paced ticks that overran into the next, lost samples, and every
// flush, checkpoint, replicate or restore call that returned an error.
type ops struct{ attempted, failed int }

// book is one goroutine's account of the run: operations, bytes made durable,
// flush timings. The driver books into the rig's own; the paced workload's
// side flusher keeps a second one, folded in when it stops, so the two
// goroutines never write the same field.
type book struct {
	ops ops
	// bytes is everything written under the WAL and checkpoint directories so
	// far. Checkpoints truncate the WAL and prune their predecessors, so sizes
	// on disk shrink; this only grows.
	bytes               float64
	flushUs, flushBytes []float64
}

func (b *book) add(o *book) {
	b.ops.attempted += o.ops.attempted
	b.ops.failed += o.ops.failed
	b.bytes += o.bytes
	b.flushUs = append(b.flushUs, o.flushUs...)
	b.flushBytes = append(b.flushBytes, o.flushBytes...)
}

// rig is one workload's warm system under test plus everything the
// benchmark stands around it.
type rig struct {
	w   workload
	p   params
	m   model
	tr  *tracer
	dir string

	hub    *serve.Hub
	ids    []serve.SessionID
	traces [][]stream.Sample
	replay *replayFleet // closed-loop workloads
	udp    *udpRig      // paced workload

	journal *serve.Journal
	walDir  string
	ckptDir string
	// primary replicates hub to standby over loopback TCP (durable only).
	primary, standby *cluster.Node
	standbyHub       *serve.Hub

	ticks int // ticks this hub has run since admission
	book      // what the driver's goroutine booked

	// Housekeeping samples, kept for the per-layer metrics.
	replMs                   []float64
	replErrs                 int
	ckptFullMs, ckptFullB    []float64
	ckptIncrMs, ckptIncrB    []float64
	loadMs, replayMs, restMs []float64
	// backlog is every inlet ring's length after every traced paced tick;
	// startLag how late every paced tick started against its schedule.
	backlog, startLag []float64
	// lat is the current cycle's latency samples, reused from cycle to cycle.
	lat []float64
}

// setup builds the workload's fleet and warms it: model, traces, hub,
// admission, then ticks until every window is full and the arenas have
// settled. Everything a timed region consumes is generated here from the seed.
func setup(w workload, p params, tr *tracer) (r *rig, err error) {
	r = &rig{w: w, p: p, tr: tr}
	defer func() {
		if err != nil {
			r.close()
			r = nil
		}
	}()
	if r.dir, err = os.MkdirTemp(p.tmp, "run-"); err != nil {
		return r, err
	}
	r.walDir, r.ckptDir = filepath.Join(r.dir, "wal"), filepath.Join(r.dir, "ckpt")
	if r.m, err = buildModel(w.model); err != nil {
		return r, err
	}
	// Journaled fleets cannot serve a wrapped model (models.Save rejects it).
	wrap := p.traced && !w.durable && !w.paced
	reg, err := newRegistry(r.m, tr, wrap)
	if err != nil {
		return r, err
	}
	r.traces = traceSet(p.seed, p.sessions)
	if r.hub, err = newHub(reg, false); err != nil {
		return r, err
	}
	if w.paced {
		return r, r.setupPaced()
	}
	if w.durable {
		// The nodes join while the hub is still empty: Join rebalances tagged
		// sessions across the ring, and this fleet must stay whole on the
		// primary with the standby only tailing it.
		if err := r.startCluster(); err != nil {
			return r, err
		}
		if err := r.openJournal(); err != nil {
			return r, err
		}
	}
	if r.replay, err = newReplayFleet(r.hub, r.m, r.traces, tr); err != nil {
		return r, err
	}
	r.ids = r.replay.ids
	for r.ticks < warmTicks {
		r.hub.TickAll()
		r.ticks++
	}
	if w.durable {
		// The first flush is the full base (every session, the model): take it
		// here so the window sees steady-state deltas.
		if err := r.flush(); err != nil {
			return r, err
		}
		r.replicate()
	}
	return r, nil
}

// startCluster wraps the serving hub in a primary node and joins a standby on
// an empty hub to it over loopback TCP. No heartbeat or replicate loops: the
// driver calls ReplicateOnce on its own thread.
func (r *rig) startCluster() error {
	var err error
	if r.standbyHub, err = newHub(serve.NewRegistry(), false); err != nil {
		return err
	}
	drop := func(serve.RestoredSession) (serve.Source, error) { return nil, nil }
	if r.primary, err = cluster.NewNode(cluster.Config{ID: "bench-primary", Replicas: 1, Rebind: drop}, r.hub); err != nil {
		return err
	}
	if r.standby, err = cluster.NewNode(cluster.Config{ID: "bench-standby", Replicas: 1, Rebind: drop}, r.standbyHub); err != nil {
		return err
	}
	return r.standby.Join(r.primary.Addr())
}

// openJournal binds a WAL to the hub. NoSync everywhere end to end: fsync is
// a disk property and has its own probe.
func (r *rig) openJournal() error {
	var err error
	r.journal, _, err = serve.NewJournal(r.hub, wal.Options{Dir: r.walDir, NoSync: true})
	return err
}

// setupPaced builds the UDP fleet and runs it on schedule until warm.
func (r *rig) setupPaced() error {
	var err error
	stampCap := 0
	if r.p.traced {
		stampCap = int(r.p.seconds*genHz/stampEvery) + 64
	}
	if r.udp, err = newUDPRig(r.traces, r.tr, stampCap); err != nil {
		return err
	}
	for i, src := range r.udp.srcs {
		id, err := r.hub.Admit(serve.SessionConfig{ModelKey: r.m.key, Source: src, Norm: r.m.norm, Tag: sessionTag(i)})
		if err != nil {
			return fmt.Errorf("bench: admit session %d: %w", i, err)
		}
		r.ids = append(r.ids, id)
	}
	if err := r.openJournal(); err != nil {
		return err
	}
	r.udp.start(20 * time.Millisecond)
	// 13 ticks fill the 100-sample windows at 122 Hz. The first journal flush
	// is the full base (every session, the model): take it here.
	r.pacedCycle(pacedWarmTicks)
	return r.flush()
}

// close tears the rig down: generator, nodes, journal, hubs, scratch files.
func (r *rig) close() {
	if r == nil {
		return
	}
	if r.udp != nil {
		r.udp.halt()
	}
	if r.primary != nil {
		r.primary.Close()
	}
	if r.standby != nil {
		r.standby.Close()
	}
	if r.journal != nil {
		r.journal.Close()
	}
	if r.hub != nil {
		r.hub.Stop()
	}
	if r.standbyHub != nil {
		r.standbyHub.Stop()
	}
	if r.udp != nil {
		r.udp.close()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// flush journals one interval on the driver's account.
func (r *rig) flush() error { return r.flushInto(&r.book) }

// flushInto journals one interval and books its time and bytes into b.
func (r *rig) flushInto(b *book) error {
	before := r.journal.Status().ActiveBytes
	var err error
	d := r.timed(spanFlush, noSpan, func() { _, _, err = r.journal.Flush() })
	b.ops.attempted++
	if err != nil {
		b.ops.failed++
		return fmt.Errorf("bench: journal flush: %w", err)
	}
	wrote := float64(r.journal.Status().ActiveBytes - before)
	b.flushUs = append(b.flushUs, float64(d.Nanoseconds())/1e3)
	b.flushBytes = append(b.flushBytes, wrote)
	b.bytes += wrote
	return nil
}

// replicate ships one dirty-delta sweep to the standby. A failed sweep is a
// failed operation, not a failed run: the link redials on the next one.
func (r *rig) replicate() {
	var err error
	d := r.timed(spanReplicate, noSpan, func() { err = r.primary.ReplicateOnce() })
	r.ops.attempted++
	if err != nil {
		r.ops.failed++
		r.replErrs++
		return
	}
	r.replMs = append(r.replMs, ms(d))
}

// checkpointNow writes a checkpoint fenced at the WAL frontier and books the
// bytes its directory holds. The journal flushes first; callers flush
// explicitly just before, so that inner flush finds nothing and the bytes
// booked by flush() stay complete.
func (r *rig) checkpointNow() error {
	var (
		dir string
		err error
	)
	d := r.timed(spanCheckpoint, noSpan, func() { dir, err = r.journal.Checkpoint(r.ckptDir) })
	r.ops.attempted++
	if err != nil {
		r.ops.failed++
		return fmt.Errorf("bench: checkpoint: %w", err)
	}
	n, err := dirBytes(dir)
	if err != nil {
		return err
	}
	man, err := checkpoint.LatestManifest(r.ckptDir)
	if err != nil {
		return err
	}
	r.bytes += float64(n)
	if man.Increments == 0 {
		r.ckptFullMs, r.ckptFullB = append(r.ckptFullMs, ms(d)), append(r.ckptFullB, float64(n))
	} else {
		r.ckptIncrMs, r.ckptIncrB = append(r.ckptIncrMs, ms(d)), append(r.ckptIncrB, float64(n))
	}
	return nil
}
