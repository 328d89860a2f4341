// Package stream implements the data-transport substrate of CognitiveArm: a
// Lab-Streaming-Layer-like (LSL) reliable, time-synchronised transport and a
// plain UDP datagram transport, both carrying 16-channel EEG at 125 Hz over
// real loopback sockets. The two are compared head-to-head to regenerate the
// paper's Figure 4 (LSL wins on latency consistency, synchronisation, jitter
// and reliability; UDP wins raw bandwidth efficiency).
package stream

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Sample is one multichannel EEG frame with its source timestamp.
type Sample struct {
	// Seq is a monotonically increasing sequence number assigned by the
	// outlet. Inlets and the serving path carry it but do not act on it:
	// only the Fig4 link harness (metrics.go) reads gaps in it.
	Seq uint64
	// Timestamp is the sender-clock acquisition time in seconds.
	Timestamp float64
	// Values holds one value per channel (microvolts).
	Values []float64
}

// Message type tags used on the wire.
const (
	msgData     = byte(0)
	msgSyncReq  = byte(1)
	msgSyncResp = byte(2)
)

// headerSize is tag + seq + timestamp + channel count.
const headerSize = 1 + 8 + 8 + 2

// MarshalBinary encodes the sample in the little-endian wire format:
// [tag u8][seq u64][timestamp f64][nch u16][values f64 ×nch]. The error is
// always nil; the ([]byte, error) signature makes Sample a proper
// encoding.BinaryMarshaler, matching UnmarshalBinary — an asymmetric pair
// (only the unmarshal side conforming) makes encoding/gob encode the struct
// field-wise but refuse to decode it, so any gob payload holding a Sample
// would be unreadable.
func (s *Sample) MarshalBinary() ([]byte, error) {
	buf := make([]byte, headerSize+8*len(s.Values))
	buf[0] = msgData
	binary.LittleEndian.PutUint64(buf[1:], s.Seq)
	binary.LittleEndian.PutUint64(buf[9:], math.Float64bits(s.Timestamp))
	binary.LittleEndian.PutUint16(buf[17:], uint16(len(s.Values)))
	for i, v := range s.Values {
		binary.LittleEndian.PutUint64(buf[headerSize+8*i:], math.Float64bits(v))
	}
	return buf, nil
}

// UnmarshalBinary decodes a wire-format sample.
func (s *Sample) UnmarshalBinary(buf []byte) error {
	if len(buf) < headerSize {
		return fmt.Errorf("stream: sample truncated (%d bytes)", len(buf))
	}
	if buf[0] != msgData {
		return fmt.Errorf("stream: not a data message (tag %d)", buf[0])
	}
	s.Seq = binary.LittleEndian.Uint64(buf[1:])
	s.Timestamp = math.Float64frombits(binary.LittleEndian.Uint64(buf[9:]))
	n := int(binary.LittleEndian.Uint16(buf[17:]))
	if len(buf) < headerSize+8*n {
		return fmt.Errorf("stream: sample payload truncated (want %d ch)", n)
	}
	if cap(s.Values) < n {
		s.Values = make([]float64, n)
	}
	s.Values = s.Values[:n]
	for i := 0; i < n; i++ {
		s.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[headerSize+8*i:]))
	}
	return nil
}

// WireSize returns the encoded size in bytes for nch channels.
func WireSize(nch int) int { return headerSize + 8*nch }
