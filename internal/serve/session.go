package serve

import (
	"io"
	"math"

	"cognitivearm/internal/control"
	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/nn"
	"cognitivearm/internal/stream"
)

// Source provides raw samples for one session. The shard drains each session
// with one ReadInto per tick into a per-shard sample buffer (reset between
// sessions), so the steady-state drain allocates nothing. The tick asks for
// the rate schedule's due samples; a source that also implements
// PendingSnapshotter is asked for up to one tick's worth more while it holds
// a backlog (see session.drain). In-tree sources:
// RingSource over a network inlet's ring, and board.SyntheticCyton for
// synthetic subjects. A source only appends to dst: it must not write into
// the Values of samples in dst's spare capacity, which may still belong to
// another source. The returned samples' Values may alias storage the source
// owns and reuses (a ring's drain arena), so they are valid only until the
// source's next ReadInto — the shard consumes them within the tick, which is
// the contract.
//
// ReadInto runs with the shard lock held, so it must not block: it returns
// what is buffered now, never waiting for more. The module's lock rule
// cannot see behind this interface call (invariants_test.go), so the
// contract is the only thing that holds it.
type Source interface {
	// ReadInto drains up to max buffered samples (oldest first), appending
	// them to dst. max <= 0 drains everything buffered.
	ReadInto(dst []stream.Sample, max int) []stream.Sample
}

// PendingSnapshotter is the optional Source extension of sources that buffer
// samples the session has not consumed yet (ring-backed network inlets, and
// the restore wrapper pendingSource). The checkpoint path copies the buffer
// out, so a fleet snapshot loses no in-flight data, and the tick reads its
// length to drain a backlog faster than real time. Sources that synthesise
// samples on demand (boards) have nothing pending and simply do not
// implement it; they keep the rate schedule exactly.
type PendingSnapshotter interface {
	// SnapshotPending returns a copy of buffered-but-unread samples, oldest
	// first, without consuming them.
	SnapshotPending() []stream.Sample
	// PendingLen reports how many samples SnapshotPending would return,
	// without copying them. The delta capture probes it, and every shard
	// tick calls it once per buffered session, so it must not allocate.
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
	// conv is the classifier's stream over win (StreamPredictorWS), nil
	// for a classifier without one. It is derived from win, so it is never
	// captured: shard.add makes it empty, and inferences fill it.
	conv *nn.ConvStream
	// stream and batch are clf's serving paths, resolved by schedule so a
	// tick asserts no interface: stream when conv is set, batch when clf
	// has a batched form, neither for a per-window classifier.
	stream models.StreamPredictorWS
	batch  models.BatchPredictorWS

	// sampleAcc implements the fractional samples-per-tick schedule
	// (e.g. 125 Hz / 15 Hz).
	sampleAcc float64
	debounce  control.Debouncer
	// buffered is the source's PendingSnapshotter view, nil for a source
	// that synthesises samples on demand; capture copies pending samples
	// through it. While it holds more than a tick's due, the tick drains up
	// to catchUp = ceil(SampleRateHz/TickHz) more samples, so the classified
	// window ends at the newest arrival. Both are fixed when a shard takes
	// the session (schedule), never probed per tick.
	buffered PendingSnapshotter
	catchUp  int
	// ver counts signal-path mutations: it increments exactly when a tick
	// ingests samples for this session (which is also the only way windows,
	// filter delay lines, debounce state or decode counters change). Every
	// record persists it, and a WAL delta (CaptureDeltaInto) carries a session's
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

// schedule fixes the session's drain rule for a shard ticking at tickHz: a
// buffered source may catch up by one tick's worth of samples per tick. It
// also resolves the classifier's serving path and makes the session's empty
// classifier stream.
func (s *session) schedule(tickHz float64) {
	s.buffered, _ = s.cfg.Source.(PendingSnapshotter)
	s.catchUp = int(math.Ceil(s.cfg.SampleRateHz / tickHz))
	s.batch, _ = s.clf.(models.BatchPredictorWS)
	if sp, ok := s.clf.(models.StreamPredictorWS); ok {
		if s.conv = sp.NewStream(); s.conv != nil {
			s.stream = sp
		}
	}
}

// due returns how many samples the rate schedule gives this tick.
func (s *session) due(tickHz float64) int {
	s.sampleAcc += s.cfg.SampleRateHz / tickHz
	n := int(s.sampleAcc)
	s.sampleAcc -= float64(n)
	return n
}

// drain returns how many samples this tick reads from the source: the due
// samples, plus, for a buffered source, up to catchUp of the backlog beyond
// them. The bound is the samples really pending, not what ReadInto could
// return, so a pendingSource over an on-demand source catches up through
// its replayed samples only and then keeps the rate schedule.
func (s *session) drain(due int) int {
	if s.buffered == nil {
		return due
	}
	return due + min(s.catchUp, max(0, s.buffered.PendingLen()-due))
}

// observe feeds one decoded label through the counters and the debounce.
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
