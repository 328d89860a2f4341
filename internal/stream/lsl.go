package stream

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cognitivearm/internal/obs"
	"cognitivearm/internal/tensor"
)

// LinkConfig describes the simulated network conditions applied on top of a
// real loopback socket, so both transports face identical adversity.
type LinkConfig struct {
	// DelayMean is the added one-way latency in seconds.
	DelayMean float64
	// DelayJitter is the standard deviation of the added latency.
	DelayJitter float64
	// LossProb is the per-datagram drop probability. Only datagram transports
	// (UDP) actually lose data; stream transports (LSL/TCP) deliver reliably
	// but pay the delay.
	LossProb float64
	// Seed makes the injected impairments reproducible.
	Seed uint64
}

// LSLOutlet is the sending side of the LSL-like transport: a reliable,
// length-prefixed TCP stream that also answers time-synchronisation probes
// from the inlet, mirroring liblsl's outlet behaviour.
type LSLOutlet struct {
	ln      net.Listener
	clock   *VirtualClock
	link    LinkConfig
	rng     *tensor.RNG
	mu      sync.Mutex
	conn    net.Conn
	ready   chan struct{}
	seq     uint64
	sendq   chan []byte
	closed  chan struct{}
	closeMu sync.Once
	// BytesSent counts payload bytes handed to the socket.
	BytesSent uint64
}

// NewLSLOutlet starts listening on a loopback port. The returned outlet must
// be Closed by the caller.
func NewLSLOutlet(clock *VirtualClock, link LinkConfig) (*LSLOutlet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("stream: lsl listen: %w", err)
	}
	o := &LSLOutlet{
		ln:     ln,
		clock:  clock,
		link:   link,
		rng:    tensor.NewRNG(link.Seed ^ 0x15DC),
		ready:  make(chan struct{}),
		sendq:  make(chan []byte, 4096),
		closed: make(chan struct{}),
	}
	go o.accept()
	return o, nil
}

// Addr returns the address an inlet should dial.
func (o *LSLOutlet) Addr() string { return o.ln.Addr().String() }

func (o *LSLOutlet) accept() {
	conn, err := o.ln.Accept()
	if err != nil {
		return
	}
	o.mu.Lock()
	o.conn = conn
	o.mu.Unlock()
	close(o.ready)
	go o.sender(conn)
	go o.serveSync(conn)
}

// sender paces queued frames, applying the simulated link delay. A single
// goroutine preserves TCP frame ordering.
func (o *LSLOutlet) sender(conn net.Conn) {
	for {
		select {
		case <-o.closed:
			return
		case frame := <-o.sendq:
			if d := o.sampleDelay(); d > 0 {
				time.Sleep(d)
			}
			if err := writeFrame(conn, frame); err != nil {
				return
			}
			o.mu.Lock()
			o.BytesSent += uint64(len(frame))
			o.mu.Unlock()
		}
	}
}

func (o *LSLOutlet) sampleDelay() time.Duration {
	d := o.link.DelayMean
	if o.link.DelayJitter > 0 {
		o.mu.Lock()
		d += o.link.DelayJitter * o.rng.NormFloat64()
		o.mu.Unlock()
	}
	if d <= 0 {
		return 0
	}
	return time.Duration(d * float64(time.Second))
}

// serveSync answers inlet sync probes: it reads 9-byte requests
// [tag][t0 f64] and replies [tag][t0][t1] where t1 is the outlet clock at
// service time. Sync replies bypass the data queue (LSL does the same: sync
// packets are small and prioritised).
func (o *LSLOutlet) serveSync(conn net.Conn) {
	buf := make([]byte, 9)
	resp := make([]byte, 17) // reused across probes: one buffer per connection
	for {
		if _, err := io.ReadFull(conn, buf); err != nil {
			return
		}
		if buf[0] != msgSyncReq {
			continue
		}
		resp[0] = msgSyncResp
		copy(resp[1:9], buf[1:9])
		binary.LittleEndian.PutUint64(resp[9:], math.Float64bits(o.clock.Now()))
		if err := writeFrame(conn, resp); err != nil {
			return
		}
	}
}

// Push stamps values with the outlet clock and queues them for delivery.
// It never blocks: if the queue is full the oldest frame is dropped (the
// freshest-data-wins policy of a real-time acquisition stack).
func (o *LSLOutlet) Push(values []float64) Sample {
	o.mu.Lock()
	seq := o.seq
	o.seq++
	o.mu.Unlock()
	s := Sample{Seq: seq, Timestamp: o.clock.Now(), Values: append([]float64(nil), values...)}
	frame, _ := s.MarshalBinary()
	select {
	case o.sendq <- frame:
	default:
		select {
		case <-o.sendq:
		default:
		}
		select {
		case o.sendq <- frame:
		default:
		}
	}
	return s
}

// WaitReady blocks until an inlet has connected or the timeout elapses.
func (o *LSLOutlet) WaitReady(timeout time.Duration) error {
	select {
	case <-o.ready:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("stream: no inlet connected within %v", timeout)
	}
}

// Close shuts the outlet down.
func (o *LSLOutlet) Close() error {
	o.closeMu.Do(func() { close(o.closed) })
	o.mu.Lock()
	conn := o.conn
	o.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	return o.ln.Close()
}

// LSLInlet is the receiving side: it buffers data into a ring, runs the
// time-synchronisation protocol, and exposes offset-corrected timestamps.
type LSLInlet struct {
	conn  net.Conn
	clock *VirtualClock
	Ring  *Ring

	mu          sync.Mutex
	offsets     []float64    // recent clock-offset estimates (outlet − inlet)
	arrivals    *arrivalRing // seq → inlet-clock arrival time, for recent seqs
	syncPending chan float64 // t0 of in-flight probe (capacity 1)
	closed      chan struct{}
	closeOnce   sync.Once

	// Lock-free receive accounting: bumped by the reader goroutine on every
	// frame, read concurrently by scrapers and tests (see UDPInlet).
	bytesRecv     atomic.Uint64
	droppedFrames atomic.Uint64 // malformed frames discarded (see DroppedFrames)
}

// NewLSLInlet dials the outlet and starts the reader and synchronisation
// loops. syncEvery controls how often clock probes are sent.
func NewLSLInlet(addr string, clock *VirtualClock, bufCap int, syncEvery time.Duration) (*LSLInlet, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("stream: lsl dial: %w", err)
	}
	in := &LSLInlet{
		conn:        conn,
		clock:       clock,
		Ring:        NewRing(bufCap),
		arrivals:    newArrivalRing(bufCap),
		syncPending: make(chan float64, 1),
		closed:      make(chan struct{}),
	}
	go in.reader()
	go in.syncLoop(syncEvery)
	return in, nil
}

func (in *LSLInlet) reader() {
	var buf []byte
	var s Sample // every data frame decodes into it; Push copies its Values
	for {
		frame, err := readFrame(in.conn, buf)
		if err != nil {
			return
		}
		buf = frame
		in.bytesRecv.Add(uint64(len(frame)))
		streamTel().lslBytes.Add(uint64(len(frame)))
		if len(frame) == 0 {
			in.drop()
			continue
		}
		switch frame[0] {
		case msgData:
			if err := s.UnmarshalBinary(frame); err != nil {
				in.drop()
				continue
			}
			in.arrivals.record(s.Seq, in.clock.Now())
			in.Ring.Push(s)
		case msgSyncResp:
			if len(frame) < 17 {
				in.drop()
				continue
			}
			t0 := math.Float64frombits(binary.LittleEndian.Uint64(frame[1:9]))
			t1 := math.Float64frombits(binary.LittleEndian.Uint64(frame[9:17]))
			t2 := in.clock.Now()
			// NTP-style: offset = t1 − (t0+t2)/2, robust to symmetric delay.
			est := t1 - (t0+t2)/2
			in.mu.Lock()
			in.offsets = append(in.offsets, est)
			if len(in.offsets) > 32 {
				in.offsets = in.offsets[len(in.offsets)-32:]
			}
			in.mu.Unlock()
			select {
			case <-in.syncPending:
			default:
			}
		default:
			in.drop() // unknown message tag
		}
	}
}

func (in *LSLInlet) syncLoop(every time.Duration) {
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-in.closed:
			return
		case <-tick.C:
			in.probe()
		}
	}
}

// probe sends one sync request if none is in flight.
func (in *LSLInlet) probe() {
	t0 := in.clock.Now()
	select {
	case in.syncPending <- t0:
	default:
		return // previous probe still in flight
	}
	req := make([]byte, 9)
	req[0] = msgSyncReq
	binary.LittleEndian.PutUint64(req[1:], math.Float64bits(t0))
	in.conn.Write(req)
}

// drop counts one malformed frame.
func (in *LSLInlet) drop() {
	in.droppedFrames.Add(1)
	t := streamTel()
	t.lslDrops.Inc()
	t.events.Record(obs.EvInletDrop, -1, 0, 1, 0)
}

// DroppedFrames reports how many malformed frames this inlet has discarded
// since creation.
func (in *LSLInlet) DroppedFrames() uint64 {
	return in.droppedFrames.Load()
}

// ClockOffset returns the current median offset estimate (outlet clock −
// inlet clock) and whether any estimate exists yet.
func (in *LSLInlet) ClockOffset() (float64, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.offsets) == 0 {
		return 0, false
	}
	tmp := append([]float64(nil), in.offsets...)
	sort.Float64s(tmp)
	return tmp[len(tmp)/2], true
}

// Corrected converts a sample's sender timestamp into the inlet clock frame
// using the sync estimate; without an estimate it returns the raw timestamp.
func (in *LSLInlet) Corrected(s Sample) float64 {
	off, ok := in.ClockOffset()
	if !ok {
		return s.Timestamp
	}
	return s.Timestamp - off
}

// ArrivalTime returns the inlet-clock arrival time recorded for seq. Stamps
// are kept for as many recent samples as the inlet's ring holds; an older
// seq reports false.
func (in *LSLInlet) ArrivalTime(seq uint64) (float64, bool) {
	return in.arrivals.lookup(seq)
}

// BytesReceived reports total payload bytes received.
func (in *LSLInlet) BytesReceived() uint64 {
	return in.bytesRecv.Load()
}

// Close tears the inlet down.
func (in *LSLInlet) Close() error {
	in.closeOnce.Do(func() { close(in.closed) })
	return in.conn.Close()
}
