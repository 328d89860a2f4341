package stream

import (
	"bytes"
	"math"
	"testing"
)

// FuzzParseDatagram feeds arbitrary bytes to the UDP inlet's datagram parser
// (the bytes any host that can reach the socket controls) from the committed
// seed corpus (testdata/fuzz/FuzzParseDatagram). It must never panic, and a
// datagram it accepts must be exactly the wire encoding of the sample it
// decoded to: MarshalBinary gives back the same bytes. Each input is parsed
// twice into one Sample whose Values start longer than most frames, as the
// reader reuses its one Sample, so the reuse path is checked as well.
func FuzzParseDatagram(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		s := Sample{Values: make([]float64, 20)}
		for i := range s.Values {
			s.Values[i] = math.NaN()
		}
		for pass := 0; pass < 2; pass++ {
			if !parseDatagramInto(buf, &s) {
				return
			}
			enc, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, buf) {
				t.Fatalf("pass %d: accepted %d-byte datagram re-encodes to %d different bytes\n in %x\nout %x", pass, len(buf), len(enc), buf, enc)
			}
		}
	})
}
