package stream

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// Shared frame I/O for every stream-oriented transport in the system. Two
// framings live here:
//
//   - the 2-byte-length data framing of the LSL-like transport (writeFrame /
//     readFrame), sized for EEG sample frames and sync probes;
//
//   - the exported 4-byte-length message framing (WriteMsg / ReadMsgBuf) of
//     the cluster's control verbs: membership, locate and the replication
//     ack. Session state does not ride it; replication and migration ship
//     WAL batches on their own socket stream (internal/wal). The length is
//     bounded by MaxMsgLen, and the reader allocates as the payload arrives,
//     not as the prefix declares, so a corrupted or hostile prefix cannot
//     make it reserve memory its sender never fills.

// MaxMsgLen bounds one framed inter-node message.
const MaxMsgLen = 256 << 20

// msgReadStep is the most ReadMsgBuf reserves ahead of the bytes that have
// arrived: the largest first step of a buffer too small for the message.
const msgReadStep = 64 << 10

// MsgHeaderLen is the length prefix of a message. A writer encodes its
// payload after MsgHeaderLen reserved bytes, and WriteMsg fills them in.
const MsgHeaderLen = 4

// WriteMsg writes one length-prefixed message, [len u32le][payload], in one
// Write: frame is MsgHeaderLen reserved bytes followed by the payload, and
// WriteMsg fills in the prefix. One Write is one TCP segment on a no-delay
// socket, and nothing is allocated.
func WriteMsg(w io.Writer, frame []byte) error {
	if len(frame) < MsgHeaderLen {
		return fmt.Errorf("stream: frame of %d bytes has no room for its length prefix", len(frame))
	}
	n := len(frame) - MsgHeaderLen
	if n > MaxMsgLen {
		return fmt.Errorf("stream: message of %d bytes exceeds limit", n)
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// ReadMsgBuf reads one length-prefixed message, enforcing MaxMsgLen, into
// buf when its capacity suffices: one read in place. Otherwise the payload
// grows as its bytes arrive, doubling from at most msgReadStep, so what it
// allocates is bounded by what the sender really sent. Connection loops pass
// one per-connection buffer so every inbound frame after the largest-yet
// stops allocating its payload:
//
//	buf := []byte(nil)
//	for {
//		msg, err := stream.ReadMsgBuf(conn, buf)
//		...
//		buf = msg[:0]
//	}
//
// The returned slice aliases buf; it is valid only until the next
// ReadMsgBuf call that reuses it. The length prefix is read into buf too
// (a header array of its own would escape through r), so a warm read
// allocates nothing.
func ReadMsgBuf(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > MaxMsgLen {
		return nil, fmt.Errorf("stream: message length %d exceeds limit", n)
	}
	payload := buf[:0]
	for len(payload) < n {
		if len(payload) == cap(payload) {
			payload = append(make([]byte, 0, min(n, max(2*cap(payload), msgReadStep))), payload...)
		}
		step := min(n, cap(payload)) - len(payload)
		payload = payload[:len(payload)+step]
		if _, err := io.ReadFull(r, payload[len(payload)-step:]); err != nil {
			return nil, fmt.Errorf("stream: torn message: %w", err)
		}
	}
	return payload, nil
}

// writeFrame sends a length-prefixed data frame (u16 length, the LSL-like
// transport's wire format) as one vectored write. The net package keeps one
// write's bytes together, so the outlet's data pump and sync responder may
// share the conn without splitting each other's frames.
func writeFrame(conn net.Conn, frame []byte) error {
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(frame)))
	bufs := net.Buffers{hdr[:], frame}
	_, err := bufs.WriteTo(conn)
	return err
}

// readFrame reads one length-prefixed data frame into buf, growing it only
// when a frame (or its 2-byte prefix, read into buf first) does not fit, so
// a warm read allocates nothing.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 2 {
		buf = make([]byte, 2)
	}
	hdr := buf[:2]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint16(hdr))
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := io.ReadFull(r, buf)
	return buf, err
}
