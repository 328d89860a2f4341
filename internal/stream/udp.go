package stream

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cognitivearm/internal/obs"
	"cognitivearm/internal/tensor"
)

// UDPOutlet streams samples as independent datagrams over loopback UDP.
// There is no handshake, no retransmission and no clock synchronisation —
// the minimal-overhead baseline of Figure 4.
type UDPOutlet struct {
	conn  *net.UDPConn
	clock *VirtualClock
	link  LinkConfig
	mu    sync.Mutex
	rng   *tensor.RNG
	seq   uint64
	wg    sync.WaitGroup
	// BytesSent counts payload bytes actually handed to the socket (dropped
	// datagrams are not counted, matching what a sender-side meter sees).
	BytesSent uint64
	// DroppedBySim counts datagrams removed by the simulated lossy link.
	DroppedBySim uint64
}

// NewUDPOutlet creates a sender targeting addr (the inlet's bound address).
func NewUDPOutlet(addr string, clock *VirtualClock, link LinkConfig) (*UDPOutlet, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: udp resolve: %w", err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("stream: udp dial: %w", err)
	}
	return &UDPOutlet{conn: conn, clock: clock, link: link, rng: tensor.NewRNG(link.Seed ^ 0x0DB)}, nil
}

// Push stamps and transmits one sample. Datagrams may be delayed (jitter) or
// dropped by the simulated link; delayed datagrams can reorder, exactly as
// real UDP allows.
func (o *UDPOutlet) Push(values []float64) Sample {
	o.mu.Lock()
	seq := o.seq
	o.seq++
	drop := o.rng.Float64() < o.link.LossProb
	delay := o.link.DelayMean
	if o.link.DelayJitter > 0 {
		delay += o.link.DelayJitter * o.rng.NormFloat64()
	}
	o.mu.Unlock()

	s := Sample{Seq: seq, Timestamp: o.clock.Now(), Values: append([]float64(nil), values...)}
	if drop {
		o.mu.Lock()
		o.DroppedBySim++
		o.mu.Unlock()
		return s
	}
	frame, _ := s.MarshalBinary()
	send := func() {
		if _, err := o.conn.Write(frame); err == nil {
			o.mu.Lock()
			o.BytesSent += uint64(len(frame))
			o.mu.Unlock()
		}
	}
	if delay > 0 {
		o.wg.Add(1)
		time.AfterFunc(time.Duration(delay*float64(time.Second)), func() {
			defer o.wg.Done()
			send()
		})
	} else {
		send()
	}
	return s
}

// Close flushes in-flight delayed datagrams and closes the socket.
func (o *UDPOutlet) Close() error {
	o.wg.Wait()
	return o.conn.Close()
}

// MaxChannels bounds the per-sample channel count an inlet accepts. The
// synthetic Cyton streams 16; research caps top out in the hundreds. A
// datagram claiming more is malformed or hostile, not a bigger headset.
const MaxChannels = 1024

// UDPInlet receives datagrams into a ring buffer. Timestamps stay in the
// sender's clock frame — UDP has no synchronisation protocol, which is the
// crux of the Figure 4 comparison.
//
// Inbound datagrams are validated before anything touches the ring: the tag
// must mark a data frame, the declared channel count must fit MaxChannels,
// and the datagram size must match the declared geometry exactly. Anything
// else increments the per-inlet drop counter (DroppedFrames) and is
// discarded — an inlet on an open port must account for garbage, not
// silently absorb it.
type UDPInlet struct {
	conn  *net.UDPConn
	clock *VirtualClock
	Ring  *Ring

	arrivals *arrivalRing

	// Lock-free receive accounting: the reader goroutine bumps these on every
	// datagram while scrapers and tests read them concurrently, so they are
	// atomics.
	bytesRecv     atomic.Uint64
	droppedFrames atomic.Uint64
}

// NewUDPInlet binds a loopback UDP socket and starts receiving.
func NewUDPInlet(clock *VirtualClock, bufCap int) (*UDPInlet, error) {
	ua, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("stream: udp listen: %w", err)
	}
	in := &UDPInlet{conn: conn, clock: clock, Ring: NewRing(bufCap), arrivals: newArrivalRing(bufCap)}
	go in.reader()
	return in, nil
}

// Addr returns the bound address for the outlet to dial.
func (in *UDPInlet) Addr() string { return in.conn.LocalAddr().String() }

func (in *UDPInlet) reader() {
	// One byte past the largest valid datagram: a longer one is truncated to
	// this length by the read, and parseDatagramInto's exact-size check drops
	// it. Every datagram decodes into the one Sample, whose Values the ring
	// copies on Push, so a warm reader allocates nothing per sample.
	buf := make([]byte, WireSize(MaxChannels)+1)
	var s Sample
	for {
		n, err := in.conn.Read(buf)
		if err != nil {
			return
		}
		if !parseDatagramInto(buf[:n], &s) {
			in.droppedFrames.Add(1)
			t := streamTel()
			t.udpDrops.Inc()
			t.events.Record(obs.EvInletDrop, -1, 0, 1, 0)
			continue
		}
		in.arrivals.record(s.Seq, in.clock.Now())
		in.bytesRecv.Add(uint64(n))
		streamTel().udpBytes.Add(uint64(n))
		in.Ring.Push(s)
	}
}

// parseDatagramInto strictly validates one inbound datagram — data tag,
// channel count within MaxChannels, and an exact size match against the
// declared geometry (a sample occupies the whole datagram: trailing bytes mean
// a corrupt or foreign frame, not padding) — and decodes it into s, reusing
// s.Values when its capacity suffices. On false, s holds nothing useful.
func parseDatagramInto(buf []byte, s *Sample) bool {
	if len(buf) < headerSize || buf[0] != msgData {
		return false
	}
	if nch := int(binary.LittleEndian.Uint16(buf[17:])); nch > MaxChannels || len(buf) != WireSize(nch) {
		return false
	}
	return s.UnmarshalBinary(buf) == nil
}

// DroppedFrames reports how many malformed or oversized datagrams this inlet
// has discarded since creation.
func (in *UDPInlet) DroppedFrames() uint64 {
	return in.droppedFrames.Load()
}

// ArrivalTime returns the inlet-clock arrival time recorded for seq. Stamps
// are kept for as many recent samples as the inlet's ring holds; an older
// seq reports false.
func (in *UDPInlet) ArrivalTime(seq uint64) (float64, bool) {
	return in.arrivals.lookup(seq)
}

// BytesReceived reports total payload bytes received.
func (in *UDPInlet) BytesReceived() uint64 {
	return in.bytesRecv.Load()
}

// Close stops the receiver.
func (in *UDPInlet) Close() error { return in.conn.Close() }
