package stream

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"testing"
	"time"
)

// frame reserves a message's length prefix ahead of payload, as the
// cluster's writers do.
func frame(payload []byte) []byte {
	return append(make([]byte, MsgHeaderLen, MsgHeaderLen+len(payload)), payload...)
}

func TestMsgRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, []byte("x"), bytes.Repeat([]byte{0xAB}, 70000)}
	for _, p := range payloads {
		if err := WriteMsg(&buf, frame(p)); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		got, err := ReadMsgBuf(&buf, nil)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("message %d mangled: %d bytes, want %d", i, len(got), len(want))
		}
	}
}

func TestMsgRejectsOversizedLength(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxMsgLen+1)
	if _, err := ReadMsgBuf(bytes.NewReader(hdr[:]), nil); err == nil {
		t.Fatal("oversized length accepted")
	}
	var w writeCounter
	if err := WriteMsg(&w, oversizedFrame(t, MsgHeaderLen+MaxMsgLen+1)); err == nil || w.writes != 0 {
		t.Fatalf("oversized payload accepted (%d Writes, err %v)", w.writes, err)
	}
	if err := WriteMsg(&bytes.Buffer{}, make([]byte, MsgHeaderLen-1)); err == nil {
		t.Fatal("a frame without room for its prefix was accepted")
	}
}

func TestMsgRejectsTornPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, frame([]byte("complete message"))); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadMsgBuf(bytes.NewReader(torn), nil); err == nil {
		t.Fatal("torn message accepted")
	}
}

// TestReadMsgBufGrowsWithArrivals: a header declaring MaxMsgLen followed by
// EOF costs about what arrived, not the 256 MiB it declared; a buffer with
// room for the message is read into in place.
func TestReadMsgBufGrowsWithArrivals(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxMsgLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadMsgBuf(bytes.NewReader(hdr[:]), nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header without its payload was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*msgReadStep {
		t.Fatalf("reader allocated %d bytes for a 4-byte input", grew)
	}

	var wire bytes.Buffer
	if err := WriteMsg(&wire, frame([]byte("ack"))); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 16)
	msg, err := ReadMsgBuf(&wire, buf)
	if err != nil || string(msg) != "ack" || &msg[0] != &buf[:1][0] {
		t.Fatalf("message %q (err %v) was not read in place", msg, err)
	}
}

// mallocs counts the heap allocations of n calls of f exactly and returns
// the least of up to five such counts, stopping at a 0. testing.AllocsPerRun divides and
// truncates, so a closure that allocates on some runs only can read 0
// there; an exact count cannot. Mallocs also counts the runtime's own
// allocations, though — an OS thread the scheduler starts when it preempts
// f, a GC cycle's sudogs and timers — and those land in a count now and
// then, where an allocation of f's recurs in every one. Each count starts
// from a finished collection.
func mallocs(n int, f func()) uint64 {
	least := uint64(math.MaxUint64)
	for try := 0; try < 5 && least > 0; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestFrameReadsAllocFree: once its buffer has room, reading a cluster
// control message (ReadMsgBuf) or an LSL data frame (readFrame) allocates
// nothing, its length prefix included, counted exactly over 200 reads.
func TestFrameReadsAllocFree(t *testing.T) {
	const reads = 200
	var msgs, frames bytes.Buffer
	for i := 0; i < reads; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 1+i%40)
		if err := WriteMsg(&msgs, frame(payload)); err != nil {
			t.Fatal(err)
		}
		var hdr [2]byte
		binary.LittleEndian.PutUint16(hdr[:], uint16(len(payload)))
		frames.Write(hdr[:])
		frames.Write(payload)
	}
	mr, fr := bytes.NewReader(msgs.Bytes()), bytes.NewReader(frames.Bytes())
	var mbuf, fbuf []byte
	var err error
	// Each closure rewinds its reader when it runs dry, so every count reads
	// the same wire.
	readMsg := func() {
		if mr.Len() == 0 {
			mr.Reset(msgs.Bytes())
		}
		var msg []byte
		if msg, err = ReadMsgBuf(mr, mbuf); err == nil {
			mbuf = msg[:0]
		}
	}
	readFrm := func() {
		if fr.Len() == 0 {
			fr.Reset(frames.Bytes())
		}
		var frame []byte
		if frame, err = readFrame(fr, fbuf); err == nil {
			fbuf = frame
		}
	}
	mbuf, fbuf = make([]byte, 0, 64), make([]byte, 0, 64)
	for name, read := range map[string]func(){"ReadMsgBuf": readMsg, "readFrame": readFrm} {
		if n := mallocs(reads, read); n != 0 || err != nil {
			t.Fatalf("%d warm %s calls allocated %d times (err %v), want 0", reads, name, n, err)
		}
	}
}

// writeCounter counts the Write calls that reach it and their bytes.
type writeCounter struct{ writes, bytes int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes, w.bytes = w.writes+1, w.bytes+len(p)
	return len(p), nil
}

// TestWriteMsgOneWrite: a message leaves in exactly one Write, its prefix
// included, and writing one allocates nothing, counted exactly over 200.
func TestWriteMsgOneWrite(t *testing.T) {
	f := frame([]byte("membership, locate or ack"))
	var w writeCounter
	if err := WriteMsg(&w, f); err != nil || w.writes != 1 || w.bytes != len(f) {
		t.Fatalf("one message took %d Writes of %d bytes in all (err %v), want 1 of %d", w.writes, w.bytes, err, len(f))
	}
	if n := mallocs(200, func() { WriteMsg(&w, f) }); n != 0 {
		t.Fatalf("200 messages allocated %d times, want 0", n)
	}
}

// FuzzReadMsgBuf: whatever a peer sends on the cluster port, the control
// frame reader never panics and allocates no more than a small multiple of
// the bytes that arrived, and every message it accepts re-encodes through
// WriteMsg to exactly the bytes it consumed. Each input is read to its first
// error, reusing one buffer as a connection loop does.
func FuzzReadMsgBuf(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		var buf []byte
		for {
			at := len(b) - r.Len()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			msg, err := ReadMsgBuf(r, buf)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*(len(b)-at))+4*msgReadStep {
				t.Fatalf("reader allocated %d bytes for %d that arrived", grew, len(b)-at)
			}
			if err != nil {
				return
			}
			var again bytes.Buffer
			if err := WriteMsg(&again, frame(msg)); err != nil {
				t.Fatal(err)
			}
			if consumed := b[at : len(b)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
				t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(consumed), again.Len())
			}
			buf = msg[:0]
		}
	})
}

// TestUDPInletDropsMalformed feeds an inlet garbage alongside valid samples
// and verifies the garbage is counted and dropped while the valid data flows:
// the hardening contract of an inlet on an open port.
func TestUDPInletDropsMalformed(t *testing.T) {
	in, err := NewUDPInlet(NewVirtualClock(0, 0), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	conn, err := net.Dial("udp", in.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	valid := Sample{Seq: 7, Timestamp: 1.25, Values: []float64{1, 2, 3}}
	frame, _ := valid.MarshalBinary()

	// Oversized channel claim: header says MaxChannels+1 channels.
	overClaim := make([]byte, WireSize(MaxChannels+1))
	overClaim[0] = msgData
	binary.LittleEndian.PutUint16(overClaim[17:], uint16(MaxChannels+1))
	// Trailing garbage after a well-formed sample.
	padded := append(append([]byte(nil), frame...), 0xDE, 0xAD)
	// Truncated payload: claims 3 channels, carries 1.
	short := append([]byte(nil), frame[:headerSize+8]...)
	// Far longer than any sample: the read buffer holds one byte past the
	// largest valid datagram, so the read truncates it and the size check
	// drops it.
	huge := append(append([]byte(nil), frame...), make([]byte, 60000)...)

	garbage := [][]byte{
		[]byte("not a sample"),   // wrong tag, undersized
		{msgSyncReq, 0, 0, 0, 0}, // non-data tag
		overClaim,                // channel bound
		padded,                   // size mismatch (trailing bytes)
		short,                    // size mismatch (truncated)
		huge,                     // larger than the read buffer
	}
	for _, g := range garbage {
		if _, err := conn.Write(g); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The largest valid datagram still fits the read buffer whole.
	widest := Sample{Seq: 8, Values: make([]float64, MaxChannels)}
	widest.Values[MaxChannels-1] = 4
	wideFrame, _ := widest.MarshalBinary()
	if _, err := conn.Write(wideFrame); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && (in.Ring.Len() < 2 || in.DroppedFrames() < uint64(len(garbage))) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := in.DroppedFrames(); got != uint64(len(garbage)) {
		t.Fatalf("dropped %d frames, want %d", got, len(garbage))
	}
	got := in.Ring.Drain()
	if len(got) != 2 || got[0].Seq != 7 || len(got[0].Values) != 3 ||
		math.Abs(got[0].Values[2]-3) > 0 {
		t.Fatalf("valid sample mangled or lost: %+v", got)
	}
	if got[1].Seq != 8 || len(got[1].Values) != MaxChannels || got[1].Values[MaxChannels-1] != 4 {
		t.Fatalf("widest valid sample mangled or lost: seq %d, %d values", got[1].Seq, len(got[1].Values))
	}
}
