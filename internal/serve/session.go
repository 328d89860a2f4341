package serve

import (
	"io"

	"cognitivearm/internal/control"
	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/stream"
)

// Source provides raw samples for one session. The shard drains each session
// with one ReadInto per tick into a per-shard sample buffer (reset between
// sessions), so the steady-state drain allocates nothing. In-tree sources:
// RingSource over a network inlet's ring, and board.SyntheticCyton for
// synthetic subjects. A source only appends to dst: it must not write into
// the Values of samples in dst's spare capacity, which may still belong to
// another source. The returned samples' Values may alias storage the source
// owns and reuses (a ring's drain arena), so they are valid only until the
// source's next ReadInto — the shard consumes them within the tick, which is
// the contract.
type Source interface {
	// ReadInto drains up to max buffered samples (oldest first), appending
	// them to dst. max <= 0 drains everything buffered.
	//
	//cogarm:zeroalloc
	ReadInto(dst []stream.Sample, max int) []stream.Sample
}

// PendingSnapshotter is the optional Source extension the checkpoint path
// uses: sources that buffer samples the session has not consumed yet (ring-
// backed network inlets) expose a non-destructive copy, so a fleet snapshot
// loses no in-flight data. Sources that synthesise samples on demand (boards)
// have nothing pending and simply do not implement it.
type PendingSnapshotter interface {
	// SnapshotPending returns a copy of buffered-but-unread samples, oldest
	// first, without consuming them.
	SnapshotPending() []stream.Sample
	// PendingLen reports how many samples SnapshotPending would return,
	// without copying them — the cheap dirtiness probe of the delta capture.
	PendingLen() int
}

// AddrSource is the optional Source extension of the cluster redirect
// protocol: sources fed by a locally bound socket (UDP/LSL inlets) report
// the address a remote streamer should send to, so a re-homing client can
// discover the promoted session's new inlet instead of being re-pointed by
// hand. An empty string means "no routable ingest address".
type AddrSource interface {
	SourceAddr() string
}

// RingSource adapts a *stream.Ring — e.g. the receive buffer of a
// stream.UDPInlet or stream.LSLInlet — to the Source interface.
type RingSource struct {
	Ring *stream.Ring
	// Closer, when set, is released on session eviction — pass the inlet
	// here so evicting a network-fed session also closes its socket.
	Closer io.Closer
}

// ReadInto implements Source via Ring.PopNInto: the samples' Values alias
// the ring's drain arena until the next ReadInto.
//
//cogarm:zeroalloc
func (r RingSource) ReadInto(dst []stream.Sample, max int) []stream.Sample {
	return r.Ring.PopNInto(dst, max)
}

// SnapshotPending implements PendingSnapshotter.
func (r RingSource) SnapshotPending() []stream.Sample { return r.Ring.Snapshot() }

// PendingLen implements PendingSnapshotter.
func (r RingSource) PendingLen() int { return r.Ring.Len() }

// SourceAddr implements AddrSource when the attached Closer is an inlet that
// knows its bound address (stream.UDPInlet, stream.LSLOutlet-style Addr).
func (r RingSource) SourceAddr() string {
	if a, ok := r.Closer.(interface{ Addr() string }); ok {
		return a.Addr()
	}
	return ""
}

// Close implements io.Closer.
func (r RingSource) Close() error {
	if r.Closer != nil {
		return r.Closer.Close()
	}
	return nil
}

// SessionConfig describes one closed-loop session joining the fleet.
type SessionConfig struct {
	// ModelKey selects the shared classifier from the hub's registry. The
	// model must already be resolved (GetOrBuild) at Admit time.
	ModelKey string
	// Source feeds raw samples; ownership passes to the hub, which closes
	// it on eviction if it implements io.Closer.
	Source Source
	// Norm holds the subject's normalisation constants (core.Pipeline.NormFor).
	Norm dataset.Stats
	// Channels and SampleRateHz describe the source stream; zero values
	// default to the synthetic Cyton's 16 channels at 125 Hz.
	Channels     int
	SampleRateHz float64
	// Tag is an opaque caller label persisted with the session in fleet
	// checkpoints. The hub never interprets it; daemons use it to decide how
	// to rebind a live Source on restore (cmd/cogarmd tags sessions
	// "demo:<subject>:<idx>" or "inlet:<i>"), and the cluster layer routes by
	// it, so it should be unique per session.
	Tag string
}

// SessionStats is a point-in-time view of one session's decode counters.
type SessionStats struct {
	ID SessionID
	// Decoded counts emitted labels (one per tick once the window fills).
	Decoded uint64
	// Actions counts labels per action class.
	Actions map[eeg.Action]uint64
	// Agreed counts ticks whose debounce supermajority fired — the labels
	// that would have moved an arm.
	Agreed uint64
	// IdleTicks is the current consecutive-silent-tick streak.
	IdleTicks int
}

// session is the per-subject state a shard ticks: ingest stage, shared
// classifier handle, and the actuation debounce of the single-subject
// Controller, minus the arm itself (fleet serving emits labels; actuation is
// the subscriber's concern).
type session struct {
	id  SessionID
	cfg SessionConfig
	clf models.Classifier
	win *control.Windower

	// sampleAcc implements the fractional samples-per-tick schedule
	// (e.g. 125 Hz / 15 Hz).
	sampleAcc float64
	debounce  control.Debouncer
	// ver counts signal-path mutations: it increments exactly when a tick
	// ingests samples for this session (which is also the only way windows,
	// filter delay lines, debounce state or decode counters change). Every
	// record persists it, and a WAL delta (CaptureDelta) carries a session's
	// record only when ver moved — same ID + same ver ⇒ bitwise-identical
	// heavy state. Scheduler-only fields that drift every tick regardless
	// (sampleAcc, idleTicks) ride in the delta's refs view instead, so an
	// idle session stays clean.
	ver uint64
	// fed flips once the source delivers its first sample; idle eviction
	// only applies afterwards, so a freshly admitted network session gets
	// an unbounded grace period to connect.
	fed       bool
	idleTicks int

	decoded uint64
	agreed  uint64
	actions [eeg.NumActions]uint64
}

// due returns how many samples this tick should consume from the source.
//
//cogarm:zeroalloc
func (s *session) due(tickHz float64) int {
	s.sampleAcc += s.cfg.SampleRateHz / tickHz
	n := int(s.sampleAcc)
	s.sampleAcc -= float64(n)
	return n
}

// observe feeds one decoded label through the counters and the debounce.
//
//cogarm:zeroalloc
func (s *session) observe(a eeg.Action) {
	s.decoded++
	if int(a) >= 0 && int(a) < len(s.actions) {
		s.actions[a]++
	}
	if s.debounce.Observe(a) {
		s.agreed++
	}
}

// stats snapshots the counters. Callers must hold the owning shard's lock.
func (s *session) stats() SessionStats {
	st := SessionStats{ID: s.id, Decoded: s.decoded, Agreed: s.agreed, IdleTicks: s.idleTicks,
		Actions: map[eeg.Action]uint64{}}
	for i, n := range s.actions {
		if n > 0 {
			st.Actions[eeg.Action(i)] = n
		}
	}
	return st
}
