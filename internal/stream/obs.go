package stream

import (
	"sync"

	"cognitivearm/internal/obs"
)

// Inlet telemetry: frame drops and receive volume per transport on the
// process-global obs registry, plus an inlet_drop lifecycle event per
// discarded frame. The per-inlet counters (DroppedFrames, BytesReceived)
// are atomic and stay the authoritative per-connection view; these series
// aggregate across every inlet the process hosts.

type streamObs struct {
	udpDrops *obs.Counter
	lslDrops *obs.Counter
	udpBytes *obs.Counter
	lslBytes *obs.Counter
	events   *obs.EventRing
}

var (
	streamTelOnce sync.Once
	streamTelVal  *streamObs
)

// streamTel returns the lazily-built stream telemetry holder. It never
// returns nil and every handle field is populated from the default
// registry.
func streamTel() *streamObs {
	streamTelOnce.Do(func() {
		reg := obs.Default()
		drops := func(transport string) *obs.Counter {
			return reg.Counter("cogarm_stream_frames_dropped_total",
				"Malformed or oversized inbound frames discarded by inlets, by transport.",
				obs.L("transport", transport))
		}
		bytes := func(transport string) *obs.Counter {
			return reg.Counter("cogarm_stream_bytes_received_total",
				"Payload bytes received by inlets, by transport.",
				obs.L("transport", transport))
		}
		streamTelVal = &streamObs{
			udpDrops: drops("udp"),
			lslDrops: drops("lsl"),
			udpBytes: bytes("udp"),
			lslBytes: bytes("lsl"),
			events:   obs.DefaultEvents(),
		}
	})
	return streamTelVal
}
