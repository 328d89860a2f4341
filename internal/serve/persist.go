package serve

import (
	"fmt"
	"io"
	"sort"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/control"
	"cognitivearm/internal/dataset"
	"cognitivearm/internal/models"
	"cognitivearm/internal/stream"
)

// Fleet checkpointing: Hub.Checkpoint snapshots the entire hub — registry
// models, every session's signal-path state, shard assignment and metrics
// baselines — into a checkpoint directory via internal/checkpoint, and
// RestoreHub rebuilds a serving hub from one. The capture is copy-on-
// snapshot: each shard's lock is held only long enough to deep-copy its
// sessions' in-memory state (microseconds per shard, one shard at a time),
// and all serialization and disk I/O happen afterwards on the caller's
// goroutine, so paced tick loops never stall behind a checkpoint.

// Checkpoint atomically persists the hub's serving state as the next
// checkpoint under root, returning the new checkpoint directory. It is
// safe to call while the hub is serving (Start) or between TickAll calls; a
// session's tick and its capture are serialized by the shard lock, so every
// persisted session is at a tick boundary.
//
// Every checkpoint is a full, self-contained snapshot of the fleet; the
// dirty-only path is the journal's (CaptureDelta), which ships the real
// deltas far more often than a checkpoint comes round.
//
// Concurrent Checkpoint calls on one hub are serialized from capture through
// publish, so checkpoint sequence order is capture order and the newest
// directory always holds the newest state.
func (h *Hub) Checkpoint(root string) (string, error) {
	return h.CheckpointWithWal(root, 0)
}

// CheckpointWithWal is Checkpoint with the manifest fenced against a
// write-ahead log: walSeq — the WAL's last sealed entry sequence as of this
// capture — rides into Manifest.WalSeq, so a later recovery replays only the
// WAL entries this checkpoint does not already contain. The serve Journal is
// the intended caller; it flushes (seals) before capturing, keeping the fence
// conservative: state journaled after walSeq is at least as new in the WAL
// as in this checkpoint, and replay's latest-record fold makes reapplying it
// harmless.
func (h *Hub) CheckpointWithWal(root string, walSeq uint64) (string, error) {
	h.ckptMu.Lock()
	defer h.ckptMu.Unlock()
	state := h.CaptureState()
	state.Manifest.WalSeq = walSeq
	//cogarm:allow nolockblock -- ckptMu exists to serialize checkpoint I/O; no tick-path code takes it
	return checkpoint.Save(root, state)
}

// CaptureState snapshots the hub's complete state into a self-contained
// checkpoint.FleetState without touching disk — the in-memory half of
// Checkpoint, exposed for tests and for callers that inspect state in place.
func (h *Hub) CaptureState() *checkpoint.FleetState {
	state, shards := h.captureHeader()
	for _, s := range shards {
		state.Manifest.Shards = append(state.Manifest.Shards, s.captureCounters())
		recs, _ := s.captureSessions(nil)
		state.Sessions = append(state.Sessions, recs...)
	}
	// Resolve models after the session sweep: Admit only places a session
	// once its model has resolved in the registry, so every model a captured
	// session references is guaranteed present here — the reverse order
	// would let a concurrently admitted session reference a model missing
	// from the snapshot, producing a checkpoint Load rejects whole.
	state.Models, state.ModelMACs = h.reg.Resolved()
	return state
}

// captureHeader starts a capture: the manifest's hub configuration and ID
// allocator, and the shard list to sweep, read together under the hub lock.
func (h *Hub) captureHeader() (*checkpoint.FleetState, []*shard) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return &checkpoint.FleetState{
		Manifest: checkpoint.Manifest{
			Hub: checkpoint.HubConfig{
				Shards:              h.cfg.Shards,
				MaxSessionsPerShard: h.cfg.MaxSessionsPerShard,
				TickHz:              h.cfg.TickHz,
				MaxIdleTicks:        h.cfg.MaxIdleTicks,
				LatencyWindow:       h.cfg.LatencyWindow,
			},
			NextID: uint64(h.nextID),
		},
	}, h.shards
}

// CaptureDelta snapshots the hub's dirty state since prev for the WAL entry
// stream (a journal flush, a replication batch, a migration) — the system's
// one incremental path. The returned state carries full records only for
// sessions whose signal path advanced since prev (or that prev does not know), the complete
// live view in Manifest.Refs (so the reader prunes departures and overlays
// the volatile scheduler fields), and every resolved model in Models — a
// DeltaEncoder ships each model once per sink, so resending the map costs
// nothing after the first delta. A nil prev marks everything dirty: the
// full-capture first flush of a journal or a fresh replication connection.
//
// Shard counter baselines deliberately stay home, exactly as in migration:
// a promoted replica is a new serving fleet, not a metrics continuation.
func (h *Hub) CaptureDelta(prev map[uint64]checkpoint.SessionRef) *checkpoint.FleetState {
	state, shards := h.captureHeader()
	for _, s := range shards {
		recs, refs := s.captureSessions(prev)
		state.Sessions = append(state.Sessions, recs...)
		state.Manifest.Refs = append(state.Manifest.Refs, refs...)
	}
	state.Models, state.ModelMACs = h.reg.Resolved()
	return state
}

// captureSessions sweeps the shard under its lock (the brief pause a running
// tick loop sees), returning full records for dirty sessions — ver moved
// since prevRefs, pending samples buffered, or no previous record at all —
// and a ref for every session, dirty or clean. Both slices come back sorted
// by session ID for deterministic bytes. A nil prevRefs marks every session
// dirty (full capture).
func (s *shard) captureSessions(prevRefs map[uint64]checkpoint.SessionRef) ([]checkpoint.SessionRecord, []checkpoint.SessionRef) {
	s.mu.Lock()
	recs := make([]checkpoint.SessionRecord, 0, len(s.sessions))
	refs := make([]checkpoint.SessionRef, 0, len(s.sessions))
	for _, sess := range s.sessions {
		ref := checkpoint.SessionRef{
			ID:        uint64(sess.id),
			Ver:       sess.ver,
			SampleAcc: sess.sampleAcc,
			IdleTicks: sess.idleTicks,
		}
		refs = append(refs, ref)
		if pr, ok := prevRefs[ref.ID]; ok && pr.Ver == sess.ver && sessionPending(sess) == 0 {
			// Clean: the record the reader already holds is bitwise this
			// session's heavy state (same ver ⇒ no ingest ⇒ window/filters/
			// debounce/counters unchanged and no pending was drained); only
			// the volatile scheduler fields moved, and those ride in the ref.
			continue
		}
		recs = append(recs, captureSessionLocked(s.id, sess))
	}
	s.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	sort.Slice(refs, func(i, j int) bool { return refs[i].ID < refs[j].ID })
	return recs, refs
}

// sessionPending cheaply counts samples buffered in the session's source
// without copying them. Callers hold the owning shard's lock.
func sessionPending(sess *session) int {
	if pl, ok := sess.cfg.Source.(interface{ PendingLen() int }); ok {
		return pl.PendingLen()
	}
	if snap, ok := sess.cfg.Source.(PendingSnapshotter); ok {
		return len(snap.SnapshotPending())
	}
	return 0
}

// captureSessionLocked deep-copies one session's complete resumable state.
// Callers hold the owning shard's lock.
func captureSessionLocked(shardID int, sess *session) checkpoint.SessionRecord {
	rec := checkpoint.SessionRecord{
		ID:           uint64(sess.id),
		Shard:        shardID,
		Ver:          sess.ver,
		ModelKey:     sess.cfg.ModelKey,
		Tag:          sess.cfg.Tag,
		Channels:     sess.cfg.Channels,
		SampleRateHz: sess.cfg.SampleRateHz,
		NormMean:     append([]float64(nil), sess.cfg.Norm.Mean...),
		NormStd:      append([]float64(nil), sess.cfg.Norm.Std...),
		SampleAcc:    sess.sampleAcc,
		Fed:          sess.fed,
		IdleTicks:    sess.idleTicks,
		Decoded:      sess.decoded,
		Agreed:       sess.agreed,
		Actions:      append([]uint64(nil), sess.actions[:]...),
		Windower:     sess.win.State(),
		Debounce:     sess.debounce.State(),
	}
	if snap, ok := sess.cfg.Source.(PendingSnapshotter); ok {
		for _, smp := range snap.SnapshotPending() {
			rec.Pending = append(rec.Pending, checkpoint.PendingSample{
				Seq: smp.Seq, Timestamp: smp.Timestamp, Values: smp.Values,
			})
		}
	}
	return rec
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
	rec := captureSessionLocked(s.id, sess)
	delete(s.sessions, id)
	if s.onEvict != nil {
		s.onEvict(id)
	}
	if s.tel != nil {
		s.tel.sessions.Dec()
	}
	s.mu.Unlock()
	// Source teardown can block on network close; do it off the lock.
	closeSource(sess.cfg.Source)
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

// Read implements Source, preserving the Source contract exactly: max <= 0
// drains pending AND the live source (as Ring.PopN would), a positive max is
// split between the two. Any deviation here would group samples into
// different ticks than the pre-kill fleet and break bitwise-identical resume.
func (p *pendingSource) Read(max int) []stream.Sample {
	if len(p.pending) == 0 {
		return p.src.Read(max)
	}
	n := len(p.pending)
	if max > 0 && max < n {
		n = max
	}
	out := p.pending[:n:n]
	p.pending = p.pending[n:]
	if max > 0 && n == max {
		return out
	}
	// max-n is negative when max <= 0: the drain-everything case passes
	// through to the live source unchanged.
	return append(out, p.src.Read(max-n)...)
}

// ReadInto implements ReaderInto so a restored session re-enters the
// allocation-free tick path immediately, replaying pending samples with the
// same split semantics as Read.
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
	if ri, ok := p.src.(ReaderInto); ok {
		return ri.ReadInto(dst, max)
	}
	return append(dst, p.src.Read(max)...)
}

// PendingLen counts replay samples plus whatever the wrapped source buffers,
// without copying either.
func (p *pendingSource) PendingLen() int {
	n := len(p.pending)
	if pl, ok := p.src.(interface{ PendingLen() int }); ok {
		n += pl.PendingLen()
	} else if snap, ok := p.src.(PendingSnapshotter); ok {
		n += len(snap.SnapshotPending())
	}
	return n
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
