package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/stream"
)

// cycle is one measured stretch of a window: cycleTicks ticks of a closed
// loop (with its flushes and its checkpoint on durable-rf) or flushEvery
// ticks of the paced one — in both cases one whole period of the workload's
// housekeeping, so every periodic cost is inside every cycle and cycles are
// comparable. A run's end-to-end numbers are quartiles over its cycles (see
// goodQuartile).
type cycle struct {
	wall, cpu time.Duration
	decisions uint64
	bytes     float64 // WAL + checkpoint bytes written during the cycle
	traced    bool
	mallocs   uint64 // heap allocations inside the tick stretches
	ticks     int
	// latP50 and latP95 are the cycle's command latency in ms: over its
	// TickAll calls (closed loop) or its tick × session stamps (paced).
	latP50, latP95 float64
	latN           int
	// due and missed count the cycle's decisions for the failure report.
	due, missed int
}

// goodQuartile reduces per-cycle values to one number: the quartile on the
// good side — the upper one of rates, the lower one of times. Interference on
// a shared host only ever slows a cycle down, and here it is neither rare nor
// symmetric: the noise probe behind README.md's "Steadiness" section shows
// two machine-speed modes 29 % apart flipping every few seconds, and bursts
// of hypervisor steal. A median flips between the modes from run to run; the
// good-side quartile stays in the undisturbed one as long as a quarter of the
// cycles are clean, and is not the extreme a minimum would be.
func goodQuartile(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return quantiles(xs, 0.75)[0]
	}
	return quantiles(xs, 0.25)[0]
}

// latencyOf books a cycle's latency quantiles from its samples.
func (c *cycle) latencyOf(samples []float64) {
	if len(samples) == 0 {
		return
	}
	q := quantiles(samples, 0.50, 0.95)
	c.latP50, c.latP95, c.latN = q[0], q[1], len(samples)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timed runs fn as a span under parent and returns how long it took.
func (r *rig) timed(name spanName, parent int32, fn func()) time.Duration {
	sp := r.tr.begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.tr.end(sp, 0)
	return d
}

// closedCycle runs cycleTicks back-to-back ticks, one caller, recording each
// TickAll's duration. On durable-rf the caller's thread also flushes and
// replicates every flushEvery ticks and checkpoints at the end of the cycle,
// all inside the cycle's wall time: that is the durability tax.
func (r *rig) closedCycle(countAllocs bool) (cycle, error) {
	c := cycle{traced: r.tr.enabled(), ticks: cycleTicks}
	r.lat = r.lat[:0]
	var m0, m1 runtime.MemStats
	dec0, bytes0 := decisions(r.hub), r.bytes
	cpu0, t0 := cpuTime(), time.Now()
	for done := 0; done < cycleTicks; done += flushEvery {
		if countAllocs {
			runtime.ReadMemStats(&m0)
		}
		for i := 0; i < flushEvery; i++ {
			sp := r.tr.beginTick()
			s := time.Now()
			r.hub.TickAll()
			d := time.Since(s)
			r.tr.endTick(sp)
			r.lat = append(r.lat, ms(d))
		}
		r.ticks += flushEvery
		if countAllocs {
			runtime.ReadMemStats(&m1)
			c.mallocs += m1.Mallocs - m0.Mallocs
		}
		if r.w.durable {
			if err := r.flush(); err != nil {
				return c, err
			}
			r.replicate()
		}
	}
	if r.w.durable {
		if err := r.checkpointNow(); err != nil {
			return c, err
		}
	}
	c.wall, c.cpu = time.Since(t0), cpuTime()-cpu0
	c.decisions, c.bytes = decisions(r.hub)-dec0, r.bytes-bytes0
	c.latencyOf(r.lat)
	c.due = cycleTicks * len(r.ids)
	if int(c.decisions) < c.due {
		c.missed = c.due - int(c.decisions)
	}
	return c, nil
}

// pacedCycle runs ticks ticks on the fixed 15 Hz schedule. Each
// session's command latency runs from the due time of the newest sample the
// tick consumed to TickAll's return: it includes how late the generator sent,
// the wire, the wait in the ring and the tick, and excludes the window
// length. A tick that finishes after the next one is due fails all its
// decisions; a session whose ring was empty fails its one.
func (r *rig) pacedCycle(ticks int) cycle {
	g := r.udp
	c := cycle{traced: r.tr.enabled(), ticks: ticks}
	r.lat = r.lat[:0]
	dec0 := decisions(r.hub)
	// The generator's thread is the streamer's machine, not the hub's: its
	// CPU stays out of cpu_ms_per_kdecision.
	cpu0, t0 := cpuTime()-g.cpu(), time.Now()
	for i := 0; i < ticks; i++ {
		due := g.t0 + tickPhase.Seconds() + float64(r.ticks)/tickHz
		next := due + 1/tickHz
		g.sleepUntil(due)
		start := g.clock.Now()
		sp := r.tr.beginTick()
		r.hub.TickAll()
		r.tr.endTick(sp)
		end := g.clock.Now()
		r.ticks++
		r.startLag = append(r.startLag, 1e3*(start-due))
		if c.traced {
			for _, in := range g.inlets {
				r.backlog = append(r.backlog, float64(in.Ring.Len()))
			}
		}
		c.due += len(g.srcs)
		if end > next {
			c.missed += len(g.srcs)
			continue
		}
		for _, src := range g.srcs {
			if src.got == 0 {
				c.missed++
				continue
			}
			r.lat = append(r.lat, 1e3*(end-src.newest))
		}
	}
	c.wall, c.cpu = time.Since(t0), cpuTime()-g.cpu()-cpu0
	c.decisions = decisions(r.hub) - dec0
	c.latencyOf(r.lat)
	return c
}

// flusher is cogarmd's journal loop for the paced workload: a side goroutine
// that flushes when the driver says a flush interval has passed, on its own
// account.
type flusher struct {
	req  chan struct{}
	done chan struct{}
	book book
	err  error
}

func (r *rig) startFlusher() *flusher {
	// One pending request is enough: a flush covers everything dirty so far.
	f := &flusher{req: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		for range f.req {
			if err := r.flushInto(&f.book); err != nil && f.err == nil {
				f.err = err
			}
		}
	}()
	return f
}

func (f *flusher) kick() {
	select {
	case f.req <- struct{}{}:
	default:
	}
}

// stop waits for the flusher and folds its account into the driver's.
func (f *flusher) stop(r *rig) error {
	close(f.req)
	<-f.done
	r.book.add(&f.book)
	return f.err
}

// window is what one measured pass produced.
type window struct {
	cycles  []cycle
	flushed float64 // bytes the paced workload's side flusher wrote
}

// runWindow measures for seconds. With alternate set (the traced pass) the
// tracer is on for every other cycle, so the same pass yields the traced
// numbers and, from the cycles between, what tracing cost.
func (r *rig) runWindow(seconds float64, alternate bool) (*window, error) {
	w := &window{}
	var fl *flusher
	pacedTicks := flushEvery
	if r.w.paced {
		fl = r.startFlusher()
		// A window shorter than a flush interval is that many ticks long.
		if n := int(math.Ceil(seconds * tickHz)); n < pacedTicks {
			pacedTicks = n
		}
	}
	begin := time.Now()
	for n := 0; n == 0 || time.Since(begin).Seconds() < seconds; n++ {
		if alternate {
			r.tr.on.Store(n%2 == 0)
		}
		var (
			c   cycle
			err error
		)
		if r.w.paced {
			var m0, m1 runtime.MemStats
			if alternate {
				runtime.ReadMemStats(&m0)
			}
			c = r.pacedCycle(pacedTicks)
			if alternate {
				// Includes what the inlet readers allocate per datagram.
				runtime.ReadMemStats(&m1)
				c.mallocs = m1.Mallocs - m0.Mallocs
			}
			fl.kick()
		} else {
			c, err = r.closedCycle(alternate)
		}
		if err != nil {
			return nil, err
		}
		r.ops.attempted += c.due
		r.ops.failed += c.missed
		w.cycles = append(w.cycles, c)
	}
	if alternate {
		r.tr.on.Store(false)
	}
	if fl != nil {
		before := r.bytes
		if err := fl.stop(r); err != nil {
			return nil, err
		}
		w.flushed = r.bytes - before
	}
	return w, nil
}

// cycleStats is a window reduced to one number per metric.
type cycleStats struct {
	perSec, cpuPerK, bytesPer float64 // decisions/s, CPU-ms per 1000 decisions, bytes per decision
	latP50, latP95            float64
	rateQ                     [4]float64 // min, quartiles and max of the cycles' decisions/s
	n                         int
}

// reduce takes the good-side quartile, over the cycles whose traced flag
// matches, of each per-cycle figure.
func reduce(cycles []cycle, traced bool) cycleStats {
	var ps, cs, bs, p50, p95 []float64
	for _, c := range cycles {
		if c.traced != traced || c.decisions == 0 {
			continue
		}
		ps = append(ps, float64(c.decisions)/c.wall.Seconds())
		cs = append(cs, ms(c.cpu)/float64(c.decisions)*1e3)
		bs = append(bs, c.bytes/float64(c.decisions))
		p50, p95 = append(p50, c.latP50), append(p95, c.latP95)
	}
	st := cycleStats{n: len(ps)}
	if st.n == 0 {
		return st
	}
	st.perSec, st.cpuPerK, st.bytesPer = goodQuartile(ps, true), goodQuartile(cs, false), goodQuartile(bs, false)
	st.latP50, st.latP95 = goodQuartile(p50, false), goodQuartile(p95, false)
	copy(st.rateQ[:], quantiles(ps, 0, 0.25, 0.75, 1))
	return st
}

// recovery is what the epilogue measured.
type recovery struct {
	recoverMs      []float64
	bytesPerDecide float64
	conserved      conservation
}

// epilogue is the fixed recovery exercise every workload ends with, at its
// own fleet shape: checkpoint, then tail flushed intervals past it, then
// restores recoveries from that checkpoint + WAL tail, each timed from
// RestoreHubWal's start to the first restored TickAll's return. Write-side
// changes that cost replay or restore show here, in the same run. On the
// replay workloads the first restored fleet is also followed for contTicks
// ticks and must count exactly what the original counted.
func (r *rig) epilogue() (*recovery, error) {
	if r.journal == nil {
		if err := r.openJournal(); err != nil {
			return nil, err
		}
	}
	rec := &recovery{}
	bytes0, dec0 := r.bytes, decisions(r.hub)
	if err := r.flush(); err != nil {
		return nil, err
	}
	if err := r.checkpointNow(); err != nil {
		return nil, err
	}
	tail := tailFlushes
	if r.w.paced {
		tail = 1
	}
	for i := 0; i < tail; i++ {
		if r.w.paced {
			// Its decisions are not booked: the checkpoint just taken on this
			// thread may have made the first tick late, which is the
			// epilogue's doing, not the program's.
			r.pacedCycle(pacedWarmTicks)
		} else {
			for t := 0; t < flushEvery; t++ {
				r.hub.TickAll()
			}
			r.ticks += flushEvery
		}
		if err := r.flush(); err != nil {
			return nil, err
		}
	}
	if dec := decisions(r.hub) - dec0; dec > 0 {
		rec.bytesPerDecide = (r.bytes - bytes0) / float64(dec)
	}

	var (
		factory serve.SourceFactory
		want    [][]sessionCounts
	)
	if r.w.paced {
		// Stop the load, then account for every datagram before anything else
		// touches the rings.
		r.udp.halt()
		rec.conserved = r.udp.conserve()
		if rec.conserved.lost != 0 {
			return nil, fmt.Errorf("bench: sample conservation: %+v", rec.conserved)
		}
		factory = func(serve.RestoredSession) (serve.Source, error) {
			return serve.RingSource{Ring: stream.NewRing(inletRing)}, nil
		}
	} else {
		cur := r.replay.cursors()
		index := make(map[serve.SessionID]int, len(r.ids))
		for i, id := range r.ids {
			index[id] = i
		}
		factory = func(rs serve.RestoredSession) (serve.Source, error) {
			i, ok := index[rs.ID]
			if !ok {
				return nil, fmt.Errorf("bench: restored session %d was never admitted", rs.ID)
			}
			return &replaySource{trace: r.traces[i], pos: cur[i].pos, seq: cur[i].seq, tr: r.tr}, nil
		}
		// The original runs on past its last flush; a crash here loses these
		// ticks, and the restored fleet must reproduce them exactly.
		for t := 0; t < contTicks; t++ {
			r.hub.TickAll()
			counts, err := fleetCounts(r.hub, r.ids)
			if err != nil {
				return nil, err
			}
			want = append(want, counts)
		}
		r.ticks += contTicks
	}

	for i := 0; i < r.p.restores; i++ {
		// Each recovery starts as a restarted process would: from a collected
		// heap (the garbage of the one before is not this one's cost, and
		// peak_rss_mb holds one recovery's footprint, not a pile of them) and
		// from an idle machine. Back to back, 15 recoveries of 20 ms all land
		// in whichever speed mode the host is in that third of a second and
		// recover_ms spread 20 % over ten runs; 200 ms apart, 8 %.
		runtime.GC()
		time.Sleep(recoverGap)
		hub, d, err := r.recoverOnce(factory)
		r.ops.attempted++
		if err != nil {
			r.ops.failed++
			return nil, fmt.Errorf("bench: recovery %d: %w", i, err)
		}
		rec.recoverMs = append(rec.recoverMs, ms(d))
		if i == 0 {
			err = checkContinuation(hub, r.ids, want)
		}
		hub.Stop()
		if err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// recoverOnce restores a hub from the checkpoint + WAL tail and ticks it
// once. Traced, it calls the three public pieces RestoreHubWal is made of so
// each gets a span; untraced it calls RestoreHubWal itself.
func (r *rig) recoverOnce(factory serve.SourceFactory) (hub *serve.Hub, d time.Duration, err error) {
	t0 := time.Now()
	if !r.tr.enabled() {
		hub, _, _, err = serve.RestoreHubWal(r.ckptDir, r.walDir, factory)
	} else {
		root := r.tr.begin(spanRecover, noSpan)
		defer func() { r.tr.end(root, 0) }()
		var base, state *checkpoint.FleetState
		r.loadMs = append(r.loadMs, ms(r.timed(spanLoad, root, func() {
			if base, _, err = checkpoint.LoadLatest(r.ckptDir); err != nil {
				base, err = nil, nil // RestoreHubWal tolerates a missing checkpoint too
			}
		})))
		r.replayMs = append(r.replayMs, ms(r.timed(spanReplay, root, func() {
			state, _, err = serve.ReplayWAL(r.walDir, base)
		})))
		if err == nil {
			r.restMs = append(r.restMs, ms(r.timed(spanRestore, root, func() {
				hub, err = serve.RestoreHub(state, factory)
			})))
		}
	}
	if err != nil {
		return nil, 0, err
	}
	hub.TickAll()
	d = time.Since(t0)
	if got := hub.Sessions(); got != len(r.ids) {
		hub.Stop()
		return nil, 0, fmt.Errorf("restored %d of %d sessions", got, len(r.ids))
	}
	return hub, d, nil
}

// checkContinuation follows a restored hub (already ticked once) and demands
// that after every tick each session has counted exactly what the original
// had: the fleet continues bitwise, not approximately.
func checkContinuation(hub *serve.Hub, ids []serve.SessionID, want [][]sessionCounts) error {
	for t := range want {
		if t > 0 {
			hub.TickAll()
		}
		got, err := fleetCounts(hub, ids)
		if err != nil {
			return fmt.Errorf("bench: continuation check: %w", err)
		}
		for i := range got {
			if got[i] != want[t][i] {
				return fmt.Errorf("bench: continuation check: session %d, tick %d after restore: restored %+v, original %+v",
					i, t+1, got[i], want[t][i])
			}
		}
	}
	return nil
}
