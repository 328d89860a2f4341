package stream

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"testing"
	"time"
)

func TestMsgRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, []byte("x"), bytes.Repeat([]byte{0xAB}, 70000)}
	for _, p := range payloads {
		if err := WriteMsg(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		got, err := ReadMsg(&buf)
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
	if _, err := ReadMsg(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized length accepted")
	}
	if err := WriteMsg(&bytes.Buffer{}, make([]byte, MaxMsgLen+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestMsgRejectsTornPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, []byte("complete message")); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadMsg(bytes.NewReader(torn)); err == nil {
		t.Fatal("torn message accepted")
	}
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
