package stream

import (
	"sync"
	"time"
)

// VirtualClock models an endpoint clock with a fixed offset and linear drift
// relative to the host monotonic clock. Real LSL deployments face exactly
// this: the acquisition laptop and the edge device disagree by an unknown,
// slowly changing offset, which the LSL time-synchronisation protocol
// estimates and removes. UDP streaming has no such protocol, so its
// timestamps stay in the sender's frame.
type VirtualClock struct {
	mu     sync.Mutex
	base   time.Time
	offset float64 // seconds added to the host clock
	drift  float64 // fractional rate error (e.g. 50e-6 = 50 ppm)
}

// NewVirtualClock creates a clock with the given offset (seconds) and drift
// (fractional, e.g. 20e-6 for 20 ppm).
func NewVirtualClock(offset, drift float64) *VirtualClock {
	return &VirtualClock{base: time.Now(), offset: offset, drift: drift}
}

// Now returns the current virtual time in seconds.
func (c *VirtualClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	elapsed := time.Since(c.base).Seconds()
	return elapsed*(1+c.drift) + c.offset
}

// OffsetTo returns the instantaneous offset of this clock relative to other
// (this − other), the ground truth a sync protocol tries to estimate.
func (c *VirtualClock) OffsetTo(other *VirtualClock) float64 {
	return c.Now() - other.Now()
}
