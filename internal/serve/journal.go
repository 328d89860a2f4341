package serve

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/models"
	"cognitivearm/internal/obs"
	"cognitivearm/internal/wal"
)

// The serve journal: the hub's write-ahead log. Between checkpoints, every
// flush captures the dirty-session delta (the same sweep incremental
// checkpoints and replication tails run), appends it to the WAL as one
// Merkle-sealed batch, and drains the process event ring into the same batch
// as the durable audit trail. Recovery is checkpoint base + WAL replay:
// ReplayWAL folds every sealed entry past the checkpoint's WalSeq over the
// loaded state, so a daemon killed between checkpoints loses at most one
// flush interval instead of one checkpoint interval.
//
// Layering: the journal lives in serve because it converts hub state to WAL
// entries, exactly as persist.go converts hub state to checkpoint files.
// internal/wal stays ignorant of sessions; internal/checkpoint stays ignorant
// of the log. The one shared artifact is Manifest.WalSeq — the fence that
// keeps replay from applying entries a newer checkpoint already contains.

// walModel is the KindModel payload: one resolved model, frozen at journal
// time, so a WAL-only replay can rebuild sessions with no checkpoint at all.
type walModel struct {
	Key     string
	MACs    int64
	Payload []byte // models.Save bytes
}

// Journal couples a Hub to a wal.Log. All methods are safe for concurrent
// use; Flush and Checkpoint serialize on the journal's own mutex, never on a
// tick-path lock.
type Journal struct {
	hub *Hub
	log *wal.Log

	mu        sync.Mutex
	lastRefs  map[uint64]checkpoint.SessionRef
	sent      map[string]struct{} // models already journaled this process
	lastAudit uint64              // last event-ring seq drained
	events    []obs.Event         // reusable snapshot buffer
	enc       []byte              // reusable entry-encoding buffer
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
	return &Journal{
		hub:  hub,
		log:  log,
		sent: make(map[string]struct{}),
	}, info, nil
}

// Log exposes the underlying WAL for status reporting and admin tooling.
func (j *Journal) Log() *wal.Log { return j.log }

// Status returns the WAL section of /statusz (assign to StatusDoc.Wal).
func (j *Journal) Status() wal.Status { return j.log.Status() }

// Flush journals one batch: every model not yet journaled this process, a
// full record plus decision summary per dirty session, the refs manifest
// (the authoritative live view replay prunes and overlays by), and the audit
// events recorded since the previous flush — then seals the batch, which is
// the durability point. An empty interval (nothing dirty, no events) appends
// and seals nothing. Returns the batch's Merkle root and the last sealed
// entry sequence.
func (j *Journal) Flush() (root [wal.HashSize]byte, last uint64, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	//cogarm:allow nolockblock -- journal mutex exists to serialize flush/checkpoint I/O; no tick-path code takes it
	return j.flushLocked()
}

func (j *Journal) flushLocked() (root [wal.HashSize]byte, last uint64, err error) {
	delta := j.hub.CaptureDelta(j.lastRefs)
	j.events = obs.DefaultEvents().Snapshot(j.events[:0])
	pendingEvents := 0
	for _, ev := range j.events {
		if ev.Seq > j.lastAudit {
			pendingEvents++
		}
	}
	if len(delta.Sessions) == 0 && pendingEvents == 0 && j.refsUnchanged(delta) {
		return root, j.log.LastSealed(), nil
	}

	keys := make([]string, 0, len(delta.Models))
	for key := range delta.Models {
		if _, done := j.sent[key]; !done {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		var payload bytes.Buffer
		if err := models.Save(&payload, delta.Models[key]); err != nil {
			return root, 0, fmt.Errorf("serve: journal model %q: %w", key, err)
		}
		var buf bytes.Buffer
		wm := walModel{Key: key, MACs: delta.ModelMACs[key], Payload: payload.Bytes()}
		if err := gob.NewEncoder(&buf).Encode(&wm); err != nil {
			return root, 0, fmt.Errorf("serve: journal model %q: %w", key, err)
		}
		if _, err := j.log.Append(wal.KindModel, buf.Bytes()); err != nil {
			return root, 0, err
		}
		j.sent[key] = struct{}{}
	}
	for i := range delta.Sessions {
		rec := &delta.Sessions[i]
		j.enc = checkpoint.AppendSessionRecord(j.enc[:0], rec)
		if _, err := j.log.Append(wal.KindSession, j.enc); err != nil {
			return root, 0, err
		}
		j.enc = wal.EncodeDecision(j.enc[:0], wal.Decision{
			Session: rec.ID, Ver: rec.Ver, Decoded: rec.Decoded, Agreed: rec.Agreed,
		})
		if _, err := j.log.Append(wal.KindDecision, j.enc); err != nil {
			return root, 0, err
		}
	}
	man := delta.Manifest
	man.Sessions = len(delta.Sessions)
	var mbuf bytes.Buffer
	if err := gob.NewEncoder(&mbuf).Encode(&man); err != nil {
		return root, 0, fmt.Errorf("serve: journal refs: %w", err)
	}
	if _, err := j.log.Append(wal.KindRefs, mbuf.Bytes()); err != nil {
		return root, 0, err
	}
	maxEv := j.lastAudit
	for _, ev := range j.events {
		if ev.Seq <= j.lastAudit {
			continue
		}
		j.enc = wal.EncodeEvent(j.enc[:0], ev)
		if _, err := j.log.Append(wal.KindAudit, j.enc); err != nil {
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
	j.lastRefs = delta.Manifest.RefIndex()
	j.lastAudit = maxEv
	return root, last, nil
}

// refsUnchanged reports whether delta's live view matches the last journaled
// one — if a session departed (or appeared with no dirty record, e.g. via
// promotion), the refs manifest must still be journaled even when no session
// record is.
func (j *Journal) refsUnchanged(delta *checkpoint.FleetState) bool {
	if len(delta.Manifest.Refs) != len(j.lastRefs) {
		return false
	}
	for _, ref := range delta.Manifest.Refs {
		prev, ok := j.lastRefs[ref.ID]
		if !ok || prev.Ver != ref.Ver {
			return false
		}
	}
	return true
}

// Checkpoint flushes, writes a checkpoint fenced at the WAL's sealed
// frontier, and — only after the checkpoint is durable — rotates the active
// segment and truncates every segment the checkpoint fully covers. A crash
// at any point leaves a recoverable pair: before the checkpoint, the old
// base plus a longer WAL; after it, the new base plus whatever the WAL still
// holds (replay skips entries at or below the manifest's WalSeq).
func (j *Journal) Checkpoint(root string) (string, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	//cogarm:allow nolockblock -- journal mutex exists to serialize flush/checkpoint I/O; no tick-path code takes it
	if _, _, err := j.flushLocked(); err != nil {
		return "", err
	}
	last := j.log.LastSealed()
	//cogarm:allow nolockblock -- journal mutex exists to serialize flush/checkpoint I/O; no tick-path code takes it
	dir, err := j.hub.CheckpointWithWal(root, last)
	if err != nil {
		return "", err
	}
	//cogarm:allow nolockblock -- same journal-private lock; rotation is the compaction half of the checkpoint
	if err := j.log.Rotate(); err != nil {
		return dir, fmt.Errorf("serve: wal rotate after checkpoint: %w", err)
	}
	//cogarm:allow nolockblock -- same journal-private lock; truncation is the compaction half of the checkpoint
	if _, err := j.log.TruncateBelow(last); err != nil {
		return dir, fmt.Errorf("serve: wal truncate after checkpoint: %w", err)
	}
	return dir, nil
}

// Close seals and closes the underlying WAL.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	//cogarm:allow nolockblock -- journal mutex exists to serialize flush/checkpoint I/O; no tick-path code takes it
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
//
// The folded state is exactly what the crashed hub's next checkpoint would
// have contained as of the last complete flush: latest record per session,
// departures pruned by the final refs view, volatile scheduler fields
// overlaid from it. Audit and decision entries are durable history, not
// state — replay skips them.
//
// A flush is committed by its KindRefs entry, not by a seal: the log seals
// inline whenever a batch outgrows its size bound, so a crash mid-flush can
// leave sealed session records newer than any refs view. Session and model
// entries are therefore staged and enter the fold only when the refs entry
// that closes their flush is seen; what follows the last refs entry is an
// incomplete flush and is dropped, uncounted. Session payloads are staged
// raw, keyed by the ID at their fixed offset, and only the surviving record
// per live session is decoded.
func ReplayWAL(dir string, base *checkpoint.FleetState) (*checkpoint.FleetState, int, error) {
	var fence uint64
	if base != nil {
		fence = base.Manifest.WalSeq
	}
	type rawRec struct {
		seq  uint64
		data []byte
	}
	staged := make(map[uint64]rawRec) // the open flush's session payloads
	recs := make(map[uint64]rawRec)   // committed: latest per session
	stagedModels := make(map[string]walModel)
	newModels := make(map[string]walModel)
	var lastRefs rawRec      // the newest refs entry; only it is ever decoded
	applied, pending := 0, 0 // pending: entries since the last refs entry
	err := wal.Dump(dir, func(e wal.Entry) error {
		if !e.Sealed || e.Seq <= fence {
			return nil
		}
		switch e.Kind {
		case wal.KindSession:
			head, err := checkpoint.PeekSessionRecord(e.Data)
			if err != nil {
				return fmt.Errorf("wal entry %d: %w", e.Seq, err)
			}
			staged[head.ID] = rawRec{e.Seq, e.Data}
		case wal.KindModel:
			var wm walModel
			if err := gob.NewDecoder(bytes.NewReader(e.Data)).Decode(&wm); err != nil {
				return fmt.Errorf("%w: wal entry %d: model: %v", checkpoint.ErrCorrupt, e.Seq, err)
			}
			stagedModels[wm.Key] = wm
		case wal.KindRefs:
			lastRefs = rawRec{e.Seq, e.Data}
			for id, raw := range staged {
				recs[id] = raw
			}
			for key, wm := range stagedModels {
				newModels[key] = wm
			}
			clear(staged)
			clear(stagedModels)
			applied += pending + 1
			pending = 0
			return nil
		case wal.KindAudit, wal.KindDecision:
			// History, not state.
		default:
			return fmt.Errorf("%w: wal entry %d: unknown kind %d", checkpoint.ErrCorrupt, e.Seq, e.Kind)
		}
		pending++
		return nil
	})
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return base, 0, nil // no WAL directory yet: nothing to fold
		}
		return nil, 0, err
	}
	if lastRefs.seq == 0 {
		return base, 0, nil // no complete flush past the fence: nothing to fold
	}
	var lastMan checkpoint.Manifest
	if err := gob.NewDecoder(bytes.NewReader(lastRefs.data)).Decode(&lastMan); err != nil {
		return nil, 0, fmt.Errorf("%w: wal entry %d: refs manifest: %v", checkpoint.ErrCorrupt, lastRefs.seq, err)
	}
	if base == nil {
		base = &checkpoint.FleetState{
			Manifest:  lastMan,
			Models:    make(map[string]models.Classifier),
			ModelMACs: make(map[string]int64),
		}
	}
	for key, wm := range newModels {
		if _, ok := base.Models[key]; ok {
			continue
		}
		clf, err := models.Load(bytes.NewReader(wm.Payload))
		if err != nil {
			return nil, 0, fmt.Errorf("%w: wal model %q: %v", checkpoint.ErrCorrupt, key, err)
		}
		base.Models[key] = clf
		base.ModelMACs[key] = wm.MACs
	}
	// The final refs view is authoritative: sessions it does not name have
	// departed, and every session it names must resolve — from the WAL if the
	// WAL holds a record, else from the base — at exactly its journaled
	// version. Anything else means the WAL and the checkpoint disagree about
	// history, which replay must not paper over.
	fromBase := make(map[uint64]*checkpoint.SessionRecord, len(base.Sessions))
	for i := range base.Sessions {
		fromBase[base.Sessions[i].ID] = &base.Sessions[i]
	}
	out := make([]checkpoint.SessionRecord, len(lastMan.Refs))
	for i, ref := range lastMan.Refs {
		rec := &out[i]
		if raw, ok := recs[ref.ID]; ok {
			if err := checkpoint.DecodeSessionRecord(raw.data, rec); err != nil {
				return nil, 0, fmt.Errorf("wal entry %d: %w", raw.seq, err)
			}
		} else if b, ok := fromBase[ref.ID]; ok {
			*rec = *b
		} else {
			return nil, 0, fmt.Errorf("%w: wal refs name live session %d with no record in checkpoint or wal", checkpoint.ErrCorrupt, ref.ID)
		}
		if rec.Ver != ref.Ver {
			return nil, 0, fmt.Errorf("%w: wal session %d at ver %d, refs expect %d", checkpoint.ErrCorrupt, ref.ID, rec.Ver, ref.Ver)
		}
		rec.SampleAcc = ref.SampleAcc
		rec.IdleTicks = ref.IdleTicks
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	base.Manifest.Refs = lastMan.Refs
	if lastMan.NextID > base.Manifest.NextID {
		base.Manifest.NextID = lastMan.NextID
	}
	base.Sessions = out
	base.Manifest.Sessions = len(out)
	return base, applied, nil
}

// RestoreHubWal is the WAL-aware resume path: load the newest valid
// checkpoint under ckptRoot (tolerating its absence), replay the WAL tail in
// walDir over it, and restore a hub from the result. It returns the hub, the
// checkpoint directory used ("" when the restore was WAL-only), and the
// number of WAL entries applied. checkpoint.ErrNoCheckpoint (wrapped) comes
// back only when neither a checkpoint nor a replayable WAL exists.
func RestoreHubWal(ckptRoot, walDir string, newSource SourceFactory) (*Hub, string, int, error) {
	base, dir, err := checkpoint.LoadLatest(ckptRoot)
	if err != nil {
		base, dir = nil, ""
	}
	state, applied, rerr := ReplayWAL(walDir, base)
	if rerr != nil {
		return nil, "", 0, rerr
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
