package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"cognitivearm/internal/eeg"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/stream"
)

const (
	// genHz is the open-loop sample rate per session. The hub consumes at most
	// the declared 125 Hz, so at exactly 125 one late datagram adds a sample
	// period to every later command for the rest of the run (a ratchet).
	// Headroom lets a transient backlog drain: at 124 Hz one sample per second
	// per session, which left a third of the commands a sample behind and
	// cmd_latency_ms_p50 spread 9.4 % over six runs on this host; at 122 Hz
	// three per second, and 2.2 % (README.md, "The open loop").
	genHz = 122.0
	// tickPhase offsets the tick schedule from the generator's so a tick does
	// not race the burst it is about to consume.
	tickPhase = 4 * time.Millisecond
	// inletRing is cogarmd's inlet ring capacity.
	inletRing = 4096
	// stampEvery samples one datagram in 16 for the wire and ring-wait stamps.
	stampEvery = 16
)

// stamp follows one sampled datagram: when it was due to be sent and when a
// tick drained it (inlet-clock seconds). The inlet's arrival record joins
// the two after the run.
type stamp struct {
	seq          uint64
	due, drained float64
}

// ringSource is the paced workload's Source wrapper: a serve.RingSource (so
// PendingLen, SnapshotPending and SourceAddr forward) that remembers the due
// stamp of the newest sample each tick consumed — the start of that tick's
// command latency — and how many samples it has handed the hub.
type ringSource struct {
	serve.RingSource
	clock    *stream.VirtualClock
	tr       *tracer
	newest   float64 // due stamp of the newest sample the last ReadInto returned
	got      int     // samples the last ReadInto returned
	consumed uint64
	stamps   []stamp // preallocated; traced pass only
}

// ReadInto implements serve.ReaderInto over the inlet's ring.
func (r *ringSource) ReadInto(dst []stream.Sample, max int) []stream.Sample {
	sp := r.tr.child(spanDrain)
	before := len(dst)
	dst = r.RingSource.ReadInto(dst, max)
	r.got = len(dst) - before
	r.tr.end(sp, r.got)
	if r.got == 0 {
		return dst
	}
	r.consumed += uint64(r.got)
	r.newest = dst[len(dst)-1].Timestamp
	if r.tr.enabled() {
		now := r.clock.Now()
		for _, s := range dst[before:] {
			if s.Seq%stampEvery == 0 && len(r.stamps) < cap(r.stamps) {
				r.stamps = append(r.stamps, stamp{seq: s.Seq, due: s.Timestamp, drained: now})
			}
		}
	}
	return dst
}

// Read implements serve.Source through the same accounting.
func (r *ringSource) Read(max int) []stream.Sample { return r.ReadInto(nil, max) }

// udpRig is the open-loop side of paced-udp-rf: one inlet per session on real
// loopback UDP, and one generator goroutine that sends every session's next
// datagram each sample period whether or not the hub keeps up.
type udpRig struct {
	clock  *stream.VirtualClock
	inlets []*stream.UDPInlet
	srcs   []*ringSource
	conns  []*net.UDPConn
	frames [][]byte // per session: traceSamples wire frames, back to back
	period float64  // seconds between bursts
	t0     float64  // inlet-clock time burst 0 is due

	started bool
	stop    chan struct{}
	done    chan struct{}
	// bursts counts completed bursts; every burst sends one datagram per
	// session, so sent = bursts × sessions.
	bursts   atomic.Uint64
	sendErrs atomic.Uint64
	cpuNs    atomic.Int64 // CPU the generator thread has used, republished after every burst
	// lagMs is how late each burst finished against its due time — the
	// generator's own lateness, which an open loop must report. Written by
	// the generator only; read after it has stopped.
	lagMs []float64
}

// newUDPRig binds the inlets, dials them and pre-encodes every trace, so the
// generator's timed work is a header patch and a write per datagram.
func newUDPRig(traces [][]stream.Sample, tr *tracer, stampCap int) (*udpRig, error) {
	g := &udpRig{
		clock:  stream.NewVirtualClock(0, 0),
		period: 1 / genHz,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		lagMs:  make([]float64, 0, 1<<16),
	}
	wire := stream.WireSize(eeg.NumChannels)
	for i, trace := range traces {
		inlet, err := stream.NewUDPInlet(g.clock, inletRing)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("bench: inlet %d: %w", i, err)
		}
		g.inlets = append(g.inlets, inlet)
		g.srcs = append(g.srcs, &ringSource{
			RingSource: serve.RingSource{Ring: inlet.Ring, Closer: inlet},
			clock:      g.clock, tr: tr, stamps: make([]stamp, 0, stampCap),
		})
		addr, err := net.ResolveUDPAddr("udp", inlet.Addr())
		if err != nil {
			g.close()
			return nil, err
		}
		conn, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("bench: dial inlet %d: %w", i, err)
		}
		g.conns = append(g.conns, conn)
		buf := make([]byte, 0, len(trace)*wire)
		for j := range trace {
			frame, _ := trace[j].MarshalBinary() // the error is always nil
			buf = append(buf, frame...)
		}
		g.frames = append(g.frames, buf)
	}
	return g, nil
}

// start launches the generator; burst 0 is due after lead.
func (g *udpRig) start(lead time.Duration) {
	g.t0 = g.clock.Now() + lead.Seconds()
	g.started = true
	go g.generate()
}

// generate is the open loop: burst k is due at t0 + k·period regardless of
// how the hub is doing, and every datagram carries its due time, so a late
// generator shows up as latency instead of hiding it.
//
// The generator owns an OS thread. That buys two things: it can sleep in
// nanosleep, which wakes within tens of microseconds where a Go timer rounds
// up to the next millisecond (measured: p95 lag 1.8 ms with a timer), and its
// CPU can be read off the thread and kept out of cpu_ms_per_kdecision — the
// streamer is another machine in a deployment, not the hub's cost.
func (g *udpRig) generate() {
	defer close(g.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	wire := stream.WireSize(eeg.NumChannels)
	for k := uint64(0); ; k++ {
		select {
		case <-g.stop:
			return
		default:
		}
		due := g.t0 + float64(k)*g.period
		g.nanosleepUntil(due)
		off := int(k%traceSamples) * wire
		for i, conn := range g.conns {
			frame := g.frames[i][off : off+wire]
			binary.LittleEndian.PutUint64(frame[1:], k)
			binary.LittleEndian.PutUint64(frame[9:], math.Float64bits(due))
			if _, err := conn.Write(frame); err != nil {
				g.sendErrs.Add(1)
			}
		}
		g.bursts.Add(1)
		if len(g.lagMs) < cap(g.lagMs) {
			g.lagMs = append(g.lagMs, 1e3*(g.clock.Now()-due))
		}
		var ru syscall.Rusage
		if syscall.Getrusage(rusageThread, &ru) == nil {
			g.cpuNs.Store(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
}

// nanosleepUntil sleeps in the kernel until the inlet clock reads due.
func (g *udpRig) nanosleepUntil(due float64) {
	for wait := due - g.clock.Now(); wait > 0; wait = due - g.clock.Now() {
		ts := syscall.NsecToTimespec(int64(wait * 1e9))
		syscall.Nanosleep(&ts, nil) // a signal may cut it short: sleep again
	}
}

// sleepUntil is the tick driver's wait: a Go timer for the bulk, so the
// driver's P serves the inlet readers meanwhile, and nanosleep for the last
// stretch the timer would round up to a whole millisecond.
func (g *udpRig) sleepUntil(due float64) {
	const tail = 1500 * time.Microsecond
	if wait := time.Duration((due-g.clock.Now())*float64(time.Second)) - tail; wait > 0 {
		time.Sleep(wait)
	}
	g.nanosleepUntil(due)
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not name.
const rusageThread = 1

// cpu is the CPU time the generator's thread has used so far.
func (g *udpRig) cpu() time.Duration { return time.Duration(g.cpuNs.Load()) }

// halt stops the generator and waits until the inlets have read everything
// the kernel still holds for them, so the conservation count is final.
func (g *udpRig) halt() {
	if !g.started {
		return
	}
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
	<-g.done
	var last uint64
	stable := 0
	for i := 0; i < 200 && stable < 3; i++ {
		time.Sleep(5 * time.Millisecond)
		var recv uint64
		for _, in := range g.inlets {
			recv += in.BytesReceived()
		}
		if recv == last {
			stable++
		} else {
			stable, last = 0, recv
		}
	}
}

// conservation accounts for every datagram sent: consumed by a tick, still in
// a ring, or counted as dropped by the inlet or overwritten in the ring.
// lost is what none of those explains (a kernel-level drop) and must be 0.
type conservation struct {
	sent, consumed, residue, droppedFrames, overwrites uint64
	lost                                               int64
}

func (g *udpRig) conserve() conservation {
	c := conservation{sent: g.bursts.Load()*uint64(len(g.conns)) - g.sendErrs.Load()}
	for i, in := range g.inlets {
		c.consumed += g.srcs[i].consumed
		c.residue += uint64(in.Ring.Len())
		c.droppedFrames += in.DroppedFrames()
		c.overwrites += in.Ring.Dropped()
	}
	c.lost = int64(c.sent) - int64(c.consumed+c.residue+c.droppedFrames+c.overwrites)
	return c
}

// close releases the sender sockets. The inlets belong to the hub once
// admitted (RingSource.Closer) and close with it; before admission, or for
// the ones never admitted, close them here.
func (g *udpRig) close() {
	for _, c := range g.conns {
		c.Close()
	}
	for _, in := range g.inlets {
		in.Close()
	}
}
