package serve

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/obs"
	"cognitivearm/internal/wal"
)

// The serve journal: the hub's write-ahead log. Between checkpoints, every
// flush captures the dirty-session delta (the same sweep replication tails
// run), appends it to the WAL as one
// Merkle-sealed batch, and drains the process event ring into the same batch
// as the durable audit trail. Recovery is checkpoint base + WAL replay:
// ReplayWAL folds every sealed entry past the checkpoint's WalSeq over the
// loaded state, so a daemon killed between checkpoints loses at most one
// flush interval instead of one checkpoint interval.
//
// The journal is also the hub's one checkpoint writer: Checkpoint seals a
// flush, captures the whole fleet into the journal's arena and saves it
// fenced at that seal, so every checkpoint carries Manifest.WalSeq — the
// fence that keeps replay from applying entries the checkpoint already
// contains — and the log is truncated behind it.
//
// Layering: the journal lives in serve because it captures hub state
// (persist.go); internal/checkpoint owns the entries both the log and a
// checkpoint are written as, and internal/wal stays ignorant of sessions.

// Journal couples a Hub to a wal.Log. All methods are safe for concurrent
// use; Flush and Checkpoint serialize on the journal's own mutex, never on a
// tick-path lock.
type Journal struct {
	hub *Hub
	log *wal.Log

	mu        sync.Mutex
	lastRefs  map[uint64]checkpoint.SessionRef
	delta     Delta                   // every flush's and checkpoint's capture arena, unread past the call that filled it
	enc       checkpoint.DeltaEncoder // remembers the models journaled this process
	lastAudit uint64                  // last event-ring seq drained
	events    []obs.Event             // reusable snapshot buffer
	buf       []byte                  // reusable decision/audit encoding buffer
}

// NewJournal opens (and, after a crash, recovers) the WAL in opts.Dir and
// binds it to hub. The returned RecoveryInfo is the WAL's own report of what
// Open found; the caller decides whether to replay it (ReplayWAL) before the
// hub serves.
//
// The first Flush after construction captures the full fleet (lastRefs
// starts nil), so the WAL always holds a complete base from this process —
// a crash before the first checkpoint is still WAL-recoverable.
func NewJournal(hub *Hub, opts wal.Options) (*Journal, wal.RecoveryInfo, error) {
	if hub == nil {
		return nil, wal.RecoveryInfo{}, fmt.Errorf("serve: journal: nil hub")
	}
	log, info, err := wal.Open(opts)
	if err != nil {
		return nil, info, err
	}
	return &Journal{hub: hub, log: log}, info, nil
}

// Log exposes the underlying WAL for status reporting and admin tooling.
func (j *Journal) Log() *wal.Log { return j.log }

// Status returns the WAL section of /statusz (assign to StatusDoc.Wal).
func (j *Journal) Status() wal.Status { return j.log.Status() }

// Flush journals one batch: every model not yet journaled this process, a
// full record plus decision summary per dirty session, the refs manifest
// (the authoritative live view replay prunes and overlays by), and the audit
// events recorded since the previous flush — then seals the batch, which is
// the durability point. The log seals only when asked, so the whole flush is
// one sealed batch in one segment, however many sessions it holds. An empty
// interval (nothing dirty, no events) appends and seals nothing. Returns the
// Merkle root over the whole flush and the last sealed entry sequence.
func (j *Journal) Flush() (root [wal.HashSize]byte, last uint64, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked()
}

func (j *Journal) flushLocked() (root [wal.HashSize]byte, last uint64, err error) {
	delta := &j.delta
	j.hub.CaptureDeltaInto(j.lastRefs, delta)
	j.events = obs.DefaultEvents().Snapshot(j.events[:0])
	pendingEvents := 0
	for _, ev := range j.events {
		if ev.Seq > j.lastAudit {
			pendingEvents++
		}
	}
	if delta.Records.Len() == 0 && pendingEvents == 0 && j.refsUnchanged(delta) {
		return root, j.log.LastSealed(), nil
	}

	// The delta's own entries (the sequence of DeltaEncoder.AppendDelta), with
	// a decision summary behind each session record.
	if err := j.enc.AppendModels(j.log, &delta.Delta); err != nil {
		return root, 0, err
	}
	for i := 0; i < delta.Records.Len(); i++ {
		rec := delta.Records.At(i)
		if _, err := j.log.Append(wal.KindSession, rec); err != nil {
			return root, 0, err
		}
		// The capture just encoded rec, so its fixed block is there to peek.
		head, _ := checkpoint.PeekSessionRecord(rec)
		decoded, agreed, _ := checkpoint.PeekSessionCounters(rec)
		j.buf = wal.EncodeDecision(j.buf[:0], wal.Decision{
			Session: head.ID, Ver: head.Ver, Decoded: decoded, Agreed: agreed,
		})
		if _, err := j.log.Append(wal.KindDecision, j.buf); err != nil {
			return root, 0, err
		}
	}
	if err := j.enc.AppendRefs(j.log, &delta.Delta); err != nil {
		return root, 0, err
	}
	maxEv := j.lastAudit
	for _, ev := range j.events {
		if ev.Seq <= j.lastAudit {
			continue
		}
		j.buf = wal.EncodeEvent(j.buf[:0], ev)
		if _, err := j.log.Append(wal.KindAudit, j.buf); err != nil {
			return root, 0, err
		}
		if ev.Seq > maxEv {
			maxEv = ev.Seq
		}
	}
	root, _, last, err = j.log.Seal()
	if err != nil {
		return root, 0, err
	}
	// Only a sealed batch advances the dirty fence and the audit cursor: an
	// unsealed append is exactly what crash recovery drops, so it must be
	// recaptured (still dirty, still undrained) by the next flush.
	j.lastRefs = delta.Manifest.RefIndexInto(j.lastRefs)
	j.lastAudit = maxEv
	return root, last, nil
}

// refsUnchanged reports whether delta's live view matches the last journaled
// one, scheduler fields included — if a session departed (or appeared with no
// dirty record, e.g. via promotion), or only its idle clock or sample
// accumulator moved (a silent fleet), the refs manifest must still be
// journaled even when no session record is.
func (j *Journal) refsUnchanged(delta *Delta) bool {
	if len(delta.Manifest.Refs) != len(j.lastRefs) {
		return false
	}
	for _, ref := range delta.Manifest.Refs {
		if prev, ok := j.lastRefs[ref.ID]; !ok || prev != ref {
			return false
		}
	}
	return true
}

// Checkpoint flushes, writes a full checkpoint of the fleet under root fenced
// at the WAL's sealed frontier, and — only after the checkpoint is durable —
// rotates the active segment and truncates every segment the checkpoint
// fully covers, returning the new checkpoint directory. A crash at any point
// leaves a recoverable pair: before the checkpoint, the old base plus a
// longer WAL; after it, the new base plus whatever the WAL still holds
// (replay skips entries at or below the manifest's WalSeq). It is safe to
// call while the hub serves: a session's tick and its capture are serialized
// by the shard lock, so every persisted session is at a tick boundary.
//
// The flush comes first, so the fence is conservative: state journaled at or
// below it is at least as new in the checkpoint, and replay's latest-record
// fold makes reapplying anything newer harmless. Concurrent calls serialize
// from flush through truncation, so checkpoint sequence order is capture
// order and the newest directory always holds the newest state.
func (j *Journal) Checkpoint(root string) (string, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpointLocked(root)
}

func (j *Journal) checkpointLocked(root string) (string, error) {
	if _, _, err := j.flushLocked(); err != nil {
		return "", err
	}
	last := j.log.LastSealed()
	d := &j.delta
	j.hub.capture(nil, d, true)
	state := &checkpoint.FleetState{Manifest: d.Manifest, Models: d.Models, ModelMACs: d.ModelMACs}
	state.Manifest.WalSeq = last
	dir, err := checkpoint.SaveRecords(root, state, &d.Records)
	if err != nil {
		return "", err
	}
	if err := j.log.Rotate(); err != nil {
		return dir, fmt.Errorf("serve: wal rotate after checkpoint: %w", err)
	}
	if _, err := j.log.TruncateBelow(last); err != nil {
		return dir, fmt.Errorf("serve: wal truncate after checkpoint: %w", err)
	}
	return dir, nil
}

// Close seals and closes the underlying WAL.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}

// ReplayWAL folds the sealed WAL entries in dir over base — the recovery
// composition `checkpoint base + WAL tail`. Entries with seq at or below
// base's Manifest.WalSeq are already inside the checkpoint and are skipped.
// A nil base replays from nothing: legal whenever the WAL holds a full base
// (which it does for any WAL written by this process structure, since the
// first flush after daemon start is a full capture). Returns the replayed
// state (base itself when the WAL adds nothing), and how many entries were
// applied: those past the fence up to and including the last refs entry.
// The fold itself — which entries commit, what the final refs view prunes,
// checks and overlays — is checkpoint.Fold's, shared with the standby image,
// checkpoint loads and the migration receiver.
func ReplayWAL(dir string, base *checkpoint.FleetState) (*checkpoint.FleetState, int, error) {
	entries, err := scanWAL(dir)
	return foldWAL(entries, err, base)
}

// scanWAL is the half of a replay that needs no base: it reads and verifies
// every segment in dir and returns its sealed entries, their Data aliasing
// the segments' bytes. A missing dir holds no entries. On a scan error it
// returns the entries of the segments before the damaged one with it, which
// is what a replay folds before it meets the damage.
func scanWAL(dir string) ([]wal.Entry, error) {
	var entries []wal.Entry
	err := wal.Dump(dir, func(e wal.Entry) error {
		if e.Sealed {
			entries = append(entries, e)
		}
		return nil
	})
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil // no WAL directory yet: nothing to fold
	}
	return entries, err
}

// foldWAL is the other half: it folds the entries past base's fence over
// base, then reports scanErr, the damage the scan stopped at, if the fold
// itself met none first.
func foldWAL(entries []wal.Entry, scanErr error, base *checkpoint.FleetState) (*checkpoint.FleetState, int, error) {
	var fence uint64
	if base != nil {
		fence = base.Manifest.WalSeq
	}
	fold := checkpoint.NewFold()
	for _, e := range entries {
		if e.Seq <= fence {
			continue
		}
		if err := fold.Add(e); err != nil {
			return nil, 0, err
		}
	}
	if scanErr != nil {
		return nil, 0, scanErr
	}
	state, err := fold.Resolve(base)
	if err != nil {
		return nil, 0, err
	}
	return state, fold.Applied(), nil
}

// RestoreHubWal is the one resume path for daemons: load the newest valid
// checkpoint under ckptRoot (tolerating its absence), replay the WAL tail in
// walDir over it, and restore a hub from the result. An empty walDir means
// no log — the checkpoint alone. The checkpoint loads while the WAL is read
// and verified, since neither needs the other until the fold. It returns
// the hub, the checkpoint directory used ("" when the restore was WAL-only),
// and the number of WAL entries applied. When neither a checkpoint nor a
// replayable WAL exists, the checkpoint load error comes back:
// checkpoint.ErrNoCheckpoint for an empty root, else why the newest
// checkpoint was refused — joined with the replay error when a WAL tail
// needed that refused checkpoint as its base.
func RestoreHubWal(ckptRoot, walDir string, newSource SourceFactory) (*Hub, string, int, error) {
	type loaded struct {
		base *checkpoint.FleetState
		dir  string
		err  error
	}
	done := make(chan loaded, 1)
	go func() {
		base, dir, err := checkpoint.LoadLatest(ckptRoot)
		done <- loaded{base, dir, err}
	}()
	var (
		entries []wal.Entry
		scanErr error
	)
	if walDir != "" {
		entries, scanErr = scanWAL(walDir)
	}
	ld := <-done
	base, dir, err := ld.base, ld.dir, ld.err
	if err != nil {
		base, dir = nil, ""
	}
	state, applied := base, 0
	if walDir != "" {
		var rerr error
		if state, applied, rerr = foldWAL(entries, scanErr, base); rerr != nil {
			if err != nil && !errors.Is(err, checkpoint.ErrNoCheckpoint) {
				rerr = errors.Join(err, rerr)
			}
			return nil, "", 0, rerr
		}
	}
	if state == nil {
		if err != nil {
			return nil, "", 0, err // no checkpoint, empty WAL: surface the load error
		}
		return nil, "", 0, fmt.Errorf("serve: restore: empty checkpoint and wal")
	}
	hub, err := RestoreHub(state, newSource)
	if err != nil {
		return nil, "", 0, err
	}
	return hub, dir, applied, nil
}
