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
//   - the exported 4-byte-length message framing (WriteMsg / ReadMsg) used by
//     the cluster's inter-node links, whose payloads — control messages and
//     streamed checkpoint state including whole models — outgrow a u16
//     length. The length is bounded by MaxMsgLen so a corrupted or hostile
//     prefix cannot ask the reader to allocate gigabytes, mirroring the
//     record bound of internal/checkpoint.

// MaxMsgLen bounds one framed inter-node message. It matches the checkpoint
// record bound: model payloads dominate, and 256 MiB is orders of magnitude
// above any classifier in the zoo.
const MaxMsgLen = 256 << 20

// WriteMsg writes one length-prefixed message: [len u32le][payload].
func WriteMsg(w io.Writer, payload []byte) error {
	if len(payload) > MaxMsgLen {
		return fmt.Errorf("stream: message of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadMsg reads one length-prefixed message, enforcing MaxMsgLen.
func ReadMsg(r io.Reader) ([]byte, error) {
	return ReadMsgBuf(r, nil)
}

// ReadMsgBuf is ReadMsg reading the payload into buf when its capacity
// suffices, allocating (and growing the caller's buffer for next time) only
// when it does not. Connection loops pass one per-connection buffer so every
// inbound frame after the largest-yet stops allocating its payload:
//
//	buf := []byte(nil)
//	for {
//		msg, err := stream.ReadMsgBuf(conn, buf)
//		...
//		buf = msg[:0]
//	}
//
// The returned slice aliases buf; it is valid only until the next
// ReadMsgBuf call that reuses it.
func ReadMsgBuf(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxMsgLen {
		return nil, fmt.Errorf("stream: message length %d exceeds limit", n)
	}
	payload := buf
	if cap(payload) < int(n) {
		payload = make([]byte, n)
	}
	payload = payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("stream: torn message: %w", err)
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

// readFrame reads one length-prefixed data frame.
func readFrame(conn net.Conn, buf []byte) ([]byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint16(hdr[:]))
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := io.ReadFull(conn, buf)
	return buf, err
}
