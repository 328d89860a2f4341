package serve

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/control"
	"cognitivearm/internal/dataset"
	"cognitivearm/internal/models"
	"cognitivearm/internal/stream"
)

// Fleet capture and restore: capture snapshots the entire hub — registry
// models, every session's signal-path state, shard assignment and metrics
// baselines — for the journal's flushes and checkpoints (journal.go) and for
// each replication link, and RestoreHub rebuilds a serving hub from a loaded
// FleetState. The capture encodes under each shard's lock, one shard at a
// time: every session's state goes straight from live memory into the
// caller's reused record arena (Delta), with no intermediate SessionRecord
// copy, and all disk I/O happens afterwards on the caller's goroutine, so
// paced tick loops never stall behind a checkpoint.

// CaptureState snapshots the hub's complete state into a self-contained
// checkpoint.FleetState without touching disk — the in-memory half of
// Journal.Checkpoint, for callers that inspect state in place or save a
// snapshot with checkpoint.Save.
func (h *Hub) CaptureState() *checkpoint.FleetState {
	var d Delta
	h.capture(nil, &d, true)
	state := d.decode()
	state.Manifest.Refs = nil // the fleet is Sessions; a live view is a delta's
	return state
}

// Delta is one capture's arena: a checkpoint.Delta — the hub's manifest
// header with the complete live view in Manifest.Refs, every resolved model,
// and the records of the captured sessions, encoded straight from live
// state, shard by shard and in ID order within a shard — plus the capture's
// scratch. Its owner (a journal, a replication link)
// reuses it capture after capture, so its buffers stop growing once they have
// held the fleet; Records and Refs are overwritten by the next capture. The
// zero value is ready.
type Delta struct {
	checkpoint.Delta

	order []*session               // one shard's sessions in ID order
	view  checkpoint.SessionRecord // the record being encoded, aliasing a live session
}

// CaptureDeltaInto captures the hub's dirty state since prev into d for the
// WAL entry stream (a journal flush, a replication batch) — the system's one
// incremental path. d receives encoded records only for sessions whose signal
// path advanced since prev (or that prev does not know), the complete live
// view in Manifest.Refs (so the reader prunes departures and overlays the
// volatile scheduler fields), and every resolved model in Models — a
// checkpoint.DeltaEncoder ships each model once per sink, so resending the
// map costs nothing after the first delta. A nil prev marks everything dirty: the
// full-capture first flush of a journal or a fresh replication connection.
//
// Shard counter baselines deliberately stay home, exactly as in migration:
// a promoted replica is a new serving fleet, not a metrics continuation.
func (h *Hub) CaptureDeltaInto(prev map[uint64]checkpoint.SessionRef, d *Delta) {
	h.capture(prev, d, false)
}

// CaptureDelta is CaptureDeltaInto a fresh Delta, decoded: the same capture
// with its dirty records as SessionRecords that share no memory with the hub,
// for callers that inspect a delta rather than ship it.
func (h *Hub) CaptureDelta(prev map[uint64]checkpoint.SessionRef) *checkpoint.FleetState {
	var d Delta
	h.capture(prev, &d, false)
	return d.decode()
}

// capture sweeps every shard into d (see CaptureDeltaInto); counters adds
// each shard's counter baseline to the manifest, as a checkpoint needs.
func (h *Hub) capture(prev map[uint64]checkpoint.SessionRef, d *Delta, counters bool) {
	h.mu.Lock()
	d.Manifest = checkpoint.Manifest{
		Hub: checkpoint.HubConfig{
			Shards:              h.cfg.Shards,
			MaxSessionsPerShard: h.cfg.MaxSessionsPerShard,
			TickHz:              h.cfg.TickHz,
			MaxIdleTicks:        h.cfg.MaxIdleTicks,
			LatencyWindow:       h.cfg.LatencyWindow,
		},
		NextID: uint64(h.nextID),
		Shards: d.Manifest.Shards[:0],
		Refs:   d.Manifest.Refs[:0],
	}
	shards := h.shards
	h.mu.Unlock()
	d.Records.Reset()
	for _, s := range shards {
		if counters {
			d.Manifest.Shards = append(d.Manifest.Shards, s.captureCounters())
		}
		s.captureInto(prev, d)
	}
	// Drop the last view's references into live sessions.
	d.view = checkpoint.SessionRecord{
		Windower: control.WindowerState{Filter: d.view.Windower.Filter},
		Debounce: d.view.Debounce,
		Pending:  d.view.Pending[:0],
	}
	// Resolve models after the session sweep: Admit only places a session
	// once its model has resolved in the registry, so every model a captured
	// session references is guaranteed present here — the reverse order
	// would let a concurrently admitted session reference a model missing
	// from the snapshot, producing a checkpoint Load rejects whole.
	d.Models, d.ModelMACs = h.reg.Resolved()
}

// captureInto sweeps the shard under its lock (the brief pause a running
// tick loop sees), appending to d a ref for every session, dirty or clean,
// and the encoded record of every dirty one — ver moved since prev, pending
// samples buffered, or no previous record at all. Both go in session-ID
// order for deterministic bytes. A nil prev marks every session dirty.
func (s *shard) captureInto(prev map[uint64]checkpoint.SessionRef, d *Delta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d.order = d.order[:0]
	for _, sess := range s.sessions {
		d.order = append(d.order, sess)
	}
	slices.SortFunc(d.order, func(a, b *session) int { return cmp.Compare(a.id, b.id) })
	for _, sess := range d.order {
		ref := checkpoint.SessionRef{
			ID:        uint64(sess.id),
			Ver:       sess.ver,
			SampleAcc: sess.sampleAcc,
			IdleTicks: sess.idleTicks,
		}
		d.Manifest.Refs = append(d.Manifest.Refs, ref)
		if pr, ok := prev[ref.ID]; ok && pr.Ver == sess.ver && sessionPending(sess) == 0 {
			// Clean: the record the reader already holds is bitwise this
			// session's heavy state (same ver ⇒ no ingest ⇒ window/filters/
			// debounce/counters unchanged and no pending was drained); only
			// the volatile scheduler fields moved, and those ride in the ref.
			continue
		}
		viewSessionLocked(s.id, sess, &d.view)
		d.Records.Append(&d.view)
	}
	clear(d.order)
}

// decode returns d in record form: the manifest and model maps shared, each
// record decoded into memory of its own.
func (d *Delta) decode() *checkpoint.FleetState {
	state := &checkpoint.FleetState{Manifest: d.Manifest, Models: d.Models, ModelMACs: d.ModelMACs}
	if n := d.Records.Len(); n > 0 {
		state.Sessions = make([]checkpoint.SessionRecord, n)
		for i := range state.Sessions {
			decodeCaptured(d.Records.At(i), &state.Sessions[i])
		}
	}
	return state
}

// decodeCaptured decodes a record this process encoded from a live session.
// Every encoding decodes back to the record it came from (the codec's round
// trip is pinned by TestSessionRecordRoundTrip and FuzzDecodeSessionRecord),
// so a failure here is a bug, not bad input.
func decodeCaptured(raw []byte, rec *checkpoint.SessionRecord) {
	if err := checkpoint.DecodeSessionRecord(raw, rec); err != nil {
		panic(fmt.Sprintf("serve: captured session record does not decode: %v", err))
	}
}

// sessionPending cheaply counts samples buffered in the session's source
// without copying them. Callers hold the owning shard's lock.
func sessionPending(sess *session) int {
	if sess.buffered != nil {
		return sess.buffered.PendingLen()
	}
	return 0
}

// viewSessionLocked points v at one session's complete resumable state
// without copying it: v's slices alias the live session (window, norm
// constants, action counts) or reuse v's own storage (filter and debounce
// state, the pending list), so encoding a session with no pending samples
// allocates nothing. v is valid only while the caller holds the owning
// shard's lock. Its encoding is byte for byte that of the deep copy
// captureSessionLocked takes in the tests (TestCaptureEncodesDeepCopy).
func viewSessionLocked(shardID int, sess *session, v *checkpoint.SessionRecord) {
	v.ID = uint64(sess.id)
	v.Shard = shardID
	v.Ver = sess.ver
	v.ModelKey = sess.cfg.ModelKey
	v.Tag = sess.cfg.Tag
	v.Channels = sess.cfg.Channels
	v.SampleRateHz = sess.cfg.SampleRateHz
	v.NormMean = sess.cfg.Norm.Mean
	v.NormStd = sess.cfg.Norm.Std
	v.SampleAcc = sess.sampleAcc
	v.Fed = sess.fed
	v.IdleTicks = sess.idleTicks
	v.Decoded = sess.decoded
	v.Agreed = sess.agreed
	v.Actions = sess.actions[:]
	sess.win.StateView(&v.Windower)
	sess.debounce.StateInto(&v.Debounce)
	v.Pending = v.Pending[:0]
	if sess.buffered != nil {
		for _, smp := range sess.buffered.SnapshotPending() {
			v.Pending = append(v.Pending, checkpoint.PendingSample{
				Seq: smp.Seq, Timestamp: smp.Timestamp, Values: smp.Values,
			})
		}
	}
}

// captureCounters snapshots the shard's monotonic metric counters.
func (s *shard) captureCounters() checkpoint.ShardCounters {
	m := &s.met
	m.mu.Lock()
	defer m.mu.Unlock()
	return checkpoint.ShardCounters{
		Ticks:      m.ticks,
		Inferences: m.inferences,
		Batches:    m.batches,
		Evictions:  m.evictions,
		SamplesIn:  m.samplesIn,
	}
}

// restoreCounters reinstates a persisted counter baseline, so fleet
// throughput totals survive a daemon restart.
func (m *shardMetrics) restoreCounters(c checkpoint.ShardCounters) {
	m.mu.Lock()
	m.ticks = c.Ticks
	m.inferences = c.Inferences
	m.batches = c.Batches
	m.evictions = c.Evictions
	m.samplesIn = c.SamplesIn
	m.mu.Unlock()
}

// RestoredSession is the view of a persisted session handed to a
// SourceFactory so the caller can rebind a live sample source.
type RestoredSession struct {
	ID           SessionID
	ModelKey     string
	Tag          string
	Channels     int
	SampleRateHz float64
}

// SourceFactory rebinds a live Source for one restored session. Returning
// (nil, nil) drops the session — the rebind target no longer exists (e.g. an
// external client that will simply reconnect and be re-admitted). Returning
// an error aborts the whole restore.
type SourceFactory func(RestoredSession) (Source, error)

// RestoreHub rebuilds a serving hub from a loaded checkpoint: the registry
// is populated with the deserialised models (no retraining), every session
// returns to its original shard with its rolling window, filter delay state,
// debounce ring and counters intact, and samples that sat unconsumed in
// source buffers at snapshot time are prepended to the new source — so the
// restored fleet's label stream continues bitwise-identically to the one the
// killed fleet would have produced for the same subsequent input.
//
// The hub is returned stopped; call Start (or TickAll) to resume serving.
func RestoreHub(state *checkpoint.FleetState, newSource SourceFactory) (*Hub, error) {
	if state == nil {
		return nil, fmt.Errorf("serve: restore: nil state")
	}
	if newSource == nil {
		return nil, fmt.Errorf("serve: restore: nil source factory")
	}
	man := &state.Manifest
	reg := NewRegistry()
	for key, clf := range state.Models {
		clf, macs := clf, state.ModelMACs[key]
		reg.GetOrBuild(key, func() (models.Classifier, int64, error) { return clf, macs, nil })
	}
	hub, err := NewHub(Config{
		Shards:              man.Hub.Shards,
		MaxSessionsPerShard: man.Hub.MaxSessionsPerShard,
		TickHz:              man.Hub.TickHz,
		MaxIdleTicks:        man.Hub.MaxIdleTicks,
		LatencyWindow:       man.Hub.LatencyWindow,
	}, reg)
	if err != nil {
		return nil, fmt.Errorf("serve: restore: %w", err)
	}
	for i, s := range hub.shards {
		if i < len(man.Shards) {
			s.met.restoreCounters(man.Shards[i])
		}
	}
	// fail aborts a partial restore: Stop on the unstarted hub closes the
	// sources of every session already rebound, so an error on session N
	// cannot leak N-1 open sockets (and their streamer goroutines).
	fail := func(err error) (*Hub, error) {
		hub.Stop()
		return nil, err
	}

	maxID := SessionID(man.NextID)
	for i := range state.Sessions {
		rec := &state.Sessions[i]
		if rec.Shard < 0 || rec.Shard >= len(hub.shards) {
			return fail(fmt.Errorf("serve: restore: session %d assigned to shard %d of %d", rec.ID, rec.Shard, len(hub.shards)))
		}
		clf, _, ok := reg.Get(rec.ModelKey)
		if !ok {
			return fail(fmt.Errorf("serve: restore: session %d references model %q not in checkpoint", rec.ID, rec.ModelKey))
		}
		src, err := newSource(RestoredSession{
			ID:           SessionID(rec.ID),
			ModelKey:     rec.ModelKey,
			Tag:          rec.Tag,
			Channels:     rec.Channels,
			SampleRateHz: rec.SampleRateHz,
		})
		if err != nil {
			return fail(fmt.Errorf("serve: restore: session %d source: %w", rec.ID, err))
		}
		if src == nil {
			continue // caller dropped the session
		}
		sess, err := sessionFromRecord(rec, clf, src)
		if err != nil {
			return fail(err)
		}
		sess.id = SessionID(rec.ID)
		target := hub.shards[rec.Shard]
		target.add(sess)
		hub.idxMu.Lock()
		hub.index[sess.id] = target
		hub.idxMu.Unlock()
		if sess.id > maxID {
			maxID = sess.id
		}
	}
	hub.mu.Lock()
	hub.nextID = maxID
	hub.mu.Unlock()
	return hub, nil
}

// sessionFromRecord rebuilds one session from its checkpoint record around a
// live source: pending samples are prepended, the rolling window and filter
// delay state are reinstated, and the debounce ring and counters resume. The
// session's ID is left unset — RestoreHub reinstates the persisted ID, while
// RestoreSession (migration-in) assigns a fresh local one. On error the
// source is closed.
func sessionFromRecord(rec *checkpoint.SessionRecord, clf models.Classifier, src Source) (*session, error) {
	if len(rec.Pending) > 0 {
		pending := make([]stream.Sample, len(rec.Pending))
		for j, smp := range rec.Pending {
			pending[j] = stream.Sample{Seq: smp.Seq, Timestamp: smp.Timestamp, Values: smp.Values}
		}
		src = &pendingSource{pending: pending, src: src}
	}
	norm := dataset.Stats{Mean: rec.NormMean, Std: rec.NormStd}
	win, err := control.NewWindower(rec.SampleRateHz, rec.Channels, clf.WindowSize(), norm)
	if err != nil {
		closeSource(src)
		return nil, fmt.Errorf("serve: restore: session %d: %w", rec.ID, err)
	}
	if err := win.SetState(rec.Windower); err != nil {
		closeSource(src)
		return nil, fmt.Errorf("serve: restore: session %d: %w", rec.ID, err)
	}
	sess := &session{
		cfg: SessionConfig{
			ModelKey:     rec.ModelKey,
			Source:       src,
			Norm:         norm,
			Channels:     rec.Channels,
			SampleRateHz: rec.SampleRateHz,
			Tag:          rec.Tag,
		},
		clf:       clf,
		win:       win,
		ver:       rec.Ver,
		sampleAcc: rec.SampleAcc,
		fed:       rec.Fed,
		idleTicks: rec.IdleTicks,
		decoded:   rec.Decoded,
		agreed:    rec.Agreed,
	}
	if err := sess.debounce.SetState(rec.Debounce); err != nil {
		closeSource(src)
		return nil, fmt.Errorf("serve: restore: session %d: %w", rec.ID, err)
	}
	for i := 0; i < len(sess.actions) && i < len(rec.Actions); i++ {
		sess.actions[i] = rec.Actions[i]
	}
	return sess, nil
}

// ExtractSession atomically captures one session's complete resumable state
// and removes it from the hub — the sending half of live migration. Capture
// and removal happen under the shard lock, so no tick can advance the session
// between the snapshot and its departure; samples still buffered in the
// source ride along in the record's Pending list, and the source is closed
// after capture. The returned record is exactly what Hub.RestoreSession on
// another node (fed the same subsequent input) resumes bitwise-identically.
func (h *Hub) ExtractSession(id SessionID) (*checkpoint.SessionRecord, bool) {
	h.idxMu.Lock()
	s, ok := h.index[id]
	h.idxMu.Unlock()
	if !ok {
		return nil, false
	}
	return s.extractSession(id)
}

// extractSession captures-and-removes one session under the shard lock.
func (s *shard) extractSession(id SessionID) (*checkpoint.SessionRecord, bool) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	var view checkpoint.SessionRecord
	viewSessionLocked(s.id, sess, &view)
	raw := checkpoint.AppendSessionRecord(nil, &view)
	delete(s.sessions, id)
	if s.onEvict != nil {
		s.onEvict(id)
	}
	s.tel.sessions.Dec()
	s.mu.Unlock()
	// Source teardown can block on network close; do it off the lock.
	closeSource(sess.cfg.Source)
	var rec checkpoint.SessionRecord
	decodeCaptured(raw, &rec)
	return &rec, true
}

// RestoreSession admits a migrated-in session from its shipped record: every
// piece of signal-path state resumes exactly (rolling window, IIR delay
// state, debounce ring, counters, pending samples), but the hub assigns a
// fresh local ID and places the session as Admit does — session IDs and
// shard assignment are node-local bookkeeping, not migrated identity. The
// record's ModelKey must already resolve in this hub's registry (the cluster
// layer registers shipped models first).
func (h *Hub) RestoreSession(rec *checkpoint.SessionRecord, src Source) (SessionID, error) {
	return h.restoreSession(rec, src, true)
}

// PromoteSession admits a replica session during failover. It is
// RestoreSession with latency backpressure disabled:
// a promotion refused for a transiently hot p99 would lose the session
// outright, which is strictly worse than serving it on a busy shard — so
// only the hard per-shard capacity bound can refuse a promotion. Everything
// else matches migration-in exactly: fresh local ID, local placement,
// bitwise signal-path resume from the record.
func (h *Hub) PromoteSession(rec *checkpoint.SessionRecord, src Source) (SessionID, error) {
	return h.restoreSession(rec, src, false)
}

func (h *Hub) restoreSession(rec *checkpoint.SessionRecord, src Source, backpressure bool) (SessionID, error) {
	if src == nil {
		return 0, fmt.Errorf("serve: restore session %d: nil source", rec.ID)
	}
	clf, _, ok := h.reg.Get(rec.ModelKey)
	if !ok {
		closeSource(src)
		return 0, fmt.Errorf("serve: restore session %d: model %q not in registry", rec.ID, rec.ModelKey)
	}
	sess, err := sessionFromRecord(rec, clf, src)
	if err != nil {
		return 0, err
	}
	id, err := h.admitSession(sess, backpressure)
	if err != nil {
		closeSource(sess.cfg.Source)
		return 0, err
	}
	return id, nil
}

// pendingSource replays samples that were buffered but unconsumed at
// checkpoint time before handing reads through to the rebound live source.
// It preserves ordering: every pending sample drains before the first live
// one, exactly as the ring would have delivered them.
type pendingSource struct {
	pending []stream.Sample
	src     Source
}

// ReadInto implements Source, preserving its contract exactly: max <= 0
// drains pending AND the live source (as Ring.PopNInto would), a positive max
// is split between the two. Any deviation here would group samples into
// different ticks than the pre-kill fleet and break bitwise-identical resume.
func (p *pendingSource) ReadInto(dst []stream.Sample, max int) []stream.Sample {
	if len(p.pending) > 0 {
		n := len(p.pending)
		if max > 0 && max < n {
			n = max
		}
		dst = append(dst, p.pending[:n]...)
		p.pending = p.pending[n:]
		if max > 0 && n == max {
			return dst
		}
		max -= n // negative when max <= 0: still the drain-everything case
	}
	return p.src.ReadInto(dst, max)
}

// PendingLen implements PendingSnapshotter: replay samples plus whatever the
// wrapped source buffers, without copying either — the count the replaced
// ring would have reported, so a restored session catches up on the ticks
// the uninterrupted one does.
//
//cogarm:zeroalloc
func (p *pendingSource) PendingLen() int {
	if snap, ok := p.src.(PendingSnapshotter); ok {
		return len(p.pending) + snap.PendingLen()
	}
	return len(p.pending)
}

// SnapshotPending implements PendingSnapshotter, so re-checkpointing before
// the replay drains still captures every in-flight sample.
func (p *pendingSource) SnapshotPending() []stream.Sample {
	out := make([]stream.Sample, 0, len(p.pending))
	for _, s := range p.pending {
		s.Values = append([]float64(nil), s.Values...)
		out = append(out, s)
	}
	if snap, ok := p.src.(PendingSnapshotter); ok {
		out = append(out, snap.SnapshotPending()...)
	}
	return out
}

// SourceAddr forwards AddrSource through the replay wrapper, so a freshly
// promoted session's inlet address is discoverable before its pending
// samples drain.
func (p *pendingSource) SourceAddr() string {
	if a, ok := p.src.(AddrSource); ok {
		return a.SourceAddr()
	}
	return ""
}

// Close implements io.Closer, forwarding to the wrapped source.
func (p *pendingSource) Close() error {
	if c, ok := p.src.(io.Closer); ok {
		return c.Close()
	}
	closeSource(p.src)
	return nil
}
