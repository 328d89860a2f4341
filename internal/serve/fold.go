package serve

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/models"
	"cognitivearm/internal/wal"
)

// The delta format: one writer (DeltaEncoder: journal segments, replication
// tails, migrations) and one reader (Fold: WAL replay, the standby image, the
// migration receiver) of a captured delta (Hub.CaptureDeltaInto) as WAL entries:
//
//	KindModel*   models its sink has not seen yet (walModel, gob)
//	KindSession* dirty session records (checkpoint.AppendSessionRecord)
//	KindRefs     the live view that commits them (checkpoint.Manifest, gob)
//
// plus whatever history entries (decisions, audit) its writer interleaves.

// walModel is the KindModel payload: one resolved model, frozen at encode
// time, so a reader can rebuild sessions with no checkpoint at all.
type walModel struct {
	Key     string
	MACs    int64
	Payload []byte // models.Save bytes
}

// EntrySink is where a delta's entries go: a *wal.Log or a *wal.StreamWriter.
type EntrySink interface {
	Append(kind wal.Kind, data []byte) (uint64, error)
}

// DeltaEncoder encodes deltas for one sink. Models are immutable once
// resolved, so each is shipped once per encoder and later deltas reference it
// by key: use one encoder per log or connection, and drop it with a
// connection whose write failed. The zero value is ready.
type DeltaEncoder struct {
	sent map[string]struct{} // models already shipped to this sink
}

// AppendDelta writes delta to sink as one flush: its unsent models, its
// session records as they were encoded, and the refs entry that commits
// them. Sealing is the caller's.
func (d *DeltaEncoder) AppendDelta(sink EntrySink, delta *Delta) error {
	if err := d.models(sink, delta); err != nil {
		return err
	}
	for i := 0; i < delta.Records.Len(); i++ {
		if _, err := sink.Append(wal.KindSession, delta.Records.At(i)); err != nil {
			return err
		}
	}
	return d.refs(sink, delta)
}

// Append is AppendDelta for a delta in record form, such as a migration
// assembles from extracted sessions.
func (d *DeltaEncoder) Append(sink EntrySink, state *checkpoint.FleetState) error {
	delta := Delta{Manifest: state.Manifest, Models: state.Models, ModelMACs: state.ModelMACs}
	for i := range state.Sessions {
		delta.Records.Append(&state.Sessions[i])
	}
	return d.AppendDelta(sink, &delta)
}

func (d *DeltaEncoder) models(sink EntrySink, delta *Delta) error {
	keys := make([]string, 0, len(delta.Models))
	for key := range delta.Models {
		if _, done := d.sent[key]; !done {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		var payload bytes.Buffer
		if err := models.Save(&payload, delta.Models[key]); err != nil {
			return fmt.Errorf("serve: encode model %q: %w", key, err)
		}
		var buf bytes.Buffer
		wm := walModel{Key: key, MACs: delta.ModelMACs[key], Payload: payload.Bytes()}
		if err := gob.NewEncoder(&buf).Encode(&wm); err != nil {
			return fmt.Errorf("serve: encode model %q: %w", key, err)
		}
		if _, err := sink.Append(wal.KindModel, buf.Bytes()); err != nil {
			return err
		}
		if d.sent == nil {
			d.sent = make(map[string]struct{})
		}
		d.sent[key] = struct{}{}
	}
	return nil
}

func (d *DeltaEncoder) refs(sink EntrySink, delta *Delta) error {
	man := delta.Manifest
	man.Sessions = delta.Records.Len()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&man); err != nil {
		return fmt.Errorf("serve: encode refs: %w", err)
	}
	_, err := sink.Append(wal.KindRefs, buf.Bytes())
	return err
}

// Fold turns a run of WAL entries back into fleet state. Add stages entries;
// Resolve folds what was committed over an optional base. Apply is the
// long-lived form a standby keeps its image in.
//
// A flush is committed by its KindRefs entry, not by a seal: a log seals
// inline whenever a batch outgrows its size bound, so a crash mid-flush can
// leave sealed session records newer than any refs view. Session and model
// entries are therefore staged and enter the fold only when the refs entry
// that closes their flush is added; what follows the last refs entry is an
// incomplete flush and is dropped, uncounted. Session payloads are staged
// raw, keyed by the ID at their fixed offset, and only the newest refs
// manifest and the surviving record per live session are ever decoded.
type Fold struct {
	staged, recs         map[uint64][]byte   // session payloads: the open flush's, and the committed latest
	stagedModels, models map[string]walModel // likewise
	refs                 []byte              // the newest refs entry
	applied, pending     int                 // pending: entries since the last refs entry

	batch *Fold               // Apply's staging of one batch, reused
	named map[uint64]struct{} // Apply's scratch: the sessions the batch's view names
}

// NewFold returns an empty fold.
func NewFold() *Fold {
	return &Fold{
		staged: map[uint64][]byte{}, recs: map[uint64][]byte{},
		stagedModels: map[string]walModel{}, models: map[string]walModel{},
	}
}

// Add stages one entry. Session and refs payloads are kept by reference, so
// e.Data must stay valid until Resolve. Audit and decision entries are
// durable history, not state, and only count.
func (f *Fold) Add(e wal.Entry) error {
	switch e.Kind {
	case wal.KindSession:
		head, err := checkpoint.PeekSessionRecord(e.Data)
		if err != nil {
			return fmt.Errorf("wal entry %d: %w", e.Seq, err)
		}
		f.staged[head.ID] = e.Data
	case wal.KindModel:
		var wm walModel
		if err := gob.NewDecoder(bytes.NewReader(e.Data)).Decode(&wm); err != nil {
			return fmt.Errorf("%w: wal entry %d: model: %v", checkpoint.ErrCorrupt, e.Seq, err)
		}
		f.stagedModels[wm.Key] = wm
	case wal.KindRefs:
		f.refs = e.Data
		for id, raw := range f.staged {
			f.recs[id] = raw
		}
		for key, wm := range f.stagedModels {
			f.models[key] = wm
		}
		clear(f.staged)
		clear(f.stagedModels)
		f.applied += f.pending + 1
		f.pending = 0
		return nil
	case wal.KindAudit, wal.KindDecision:
	default:
		return fmt.Errorf("%w: wal entry %d: unknown kind %d", checkpoint.ErrCorrupt, e.Seq, e.Kind)
	}
	f.pending++
	return nil
}

// Applied counts the entries folded so far: everything added up to and
// including the last refs entry.
func (f *Fold) Applied() int { return f.applied }

// decodeRefs decodes a refs entry's manifest.
func decodeRefs(b []byte) (checkpoint.Manifest, error) {
	var man checkpoint.Manifest
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&man); err != nil {
		return man, fmt.Errorf("%w: wal refs manifest: %v", checkpoint.ErrCorrupt, err)
	}
	return man, nil
}

// loadModels loads every model of ms that have does not hold already; nil
// when there are none.
func loadModels(ms map[string]walModel, have map[string]models.Classifier) (map[string]models.Classifier, error) {
	var loaded map[string]models.Classifier
	for key, wm := range ms {
		if _, ok := have[key]; ok {
			continue
		}
		clf, err := models.Load(bytes.NewReader(wm.Payload))
		if err != nil {
			return nil, fmt.Errorf("%w: wal model %q: %v", checkpoint.ErrCorrupt, key, err)
		}
		if loaded == nil {
			loaded = map[string]models.Classifier{}
		}
		loaded[key] = clf
	}
	return loaded, nil
}

// Resolve folds the committed entries over base and returns the result: base
// itself, updated in place, or base untouched when no refs entry was added.
// A nil base folds from nothing, which is legal whenever the entries hold a
// full capture (the first flush of every journal and connection is one).
//
// The newest refs view is authoritative. Sessions it does not name have
// departed; every session it names must resolve — from a committed entry,
// else from base — at exactly the version it names, and takes the view's
// volatile scheduler fields. The result is what the writer's next full
// checkpoint would have held as of that flush. Every check runs before base
// is touched, so a refused fold leaves base exactly as it was offered.
func (f *Fold) Resolve(base *checkpoint.FleetState) (*checkpoint.FleetState, error) {
	if f.refs == nil {
		return base, nil
	}
	man, err := decodeRefs(f.refs)
	if err != nil {
		return nil, err
	}
	if base == nil {
		// The manifest becomes the configuration a hub is rebuilt under.
		if man.Hub.Shards < 1 || man.Hub.MaxSessionsPerShard < 1 || man.Hub.TickHz <= 0 {
			return nil, fmt.Errorf("%w: wal refs manifest hub config %+v", checkpoint.ErrCorrupt, man.Hub)
		}
		base = &checkpoint.FleetState{
			Manifest:  man,
			Models:    make(map[string]models.Classifier),
			ModelMACs: make(map[string]int64),
		}
	}
	loaded, err := loadModels(f.models, base.Models)
	if err != nil {
		return nil, err
	}
	fromBase := make(map[uint64]*checkpoint.SessionRecord, len(base.Sessions))
	for i := range base.Sessions {
		fromBase[base.Sessions[i].ID] = &base.Sessions[i]
	}
	out := make([]checkpoint.SessionRecord, len(man.Refs))
	for i, ref := range man.Refs {
		rec := &out[i]
		if raw, ok := f.recs[ref.ID]; ok {
			if err := checkpoint.DecodeSessionRecord(raw, rec); err != nil {
				return nil, fmt.Errorf("wal session %d: %w", ref.ID, err)
			}
		} else if b, ok := fromBase[ref.ID]; ok {
			*rec = *b
		} else {
			return nil, fmt.Errorf("%w: wal refs name live session %d with no record in base or wal", checkpoint.ErrCorrupt, ref.ID)
		}
		if rec.Ver != ref.Ver {
			return nil, fmt.Errorf("%w: wal session %d at ver %d, refs expect %d", checkpoint.ErrCorrupt, ref.ID, rec.Ver, ref.Ver)
		}
		rec.SampleAcc = ref.SampleAcc
		rec.IdleTicks = ref.IdleTicks
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })

	for key, clf := range loaded {
		base.Models[key] = clf
		base.ModelMACs[key] = f.models[key].MACs
	}
	base.Manifest.Refs = man.Refs
	if man.NextID > base.Manifest.NextID {
		base.Manifest.NextID = man.NextID
	}
	base.Sessions = out
	base.Manifest.Sessions = len(out)
	return base, nil
}

// Apply folds one batch of entries into a long-lived fold — a standby's
// image, kept as verified bytes — all or nothing, and returns how many
// sessions the batch's view names. The batch is staged as Add stages it, then
// checked as Resolve would check it before anything commits: its newest refs
// manifest decodes, every model it ships that base does not hold yet loads,
// and every session the view names resolves — from the batch, else from what
// earlier batches committed — at exactly the view's version, as a record
// DecodeSessionRecord accepts (checkpoint.CheckSessionRecord, which decodes
// nothing). Only then are the batch's records copied into the fold's own
// per-session buffers, reused batch after batch, sessions the view no longer
// names dropped, and the new models added to base. On error the fold and
// base are as they were. The entries may be overwritten once Apply returns.
//
// A fold is fed by Add or by Apply, never both. Resolve(base) decodes an
// applied fold, once, when its records are needed as values: the promotion
// of a standby.
func (f *Fold) Apply(entries []wal.Entry, base *checkpoint.FleetState) (int, error) {
	if f.batch == nil {
		f.batch, f.named = NewFold(), map[uint64]struct{}{}
	}
	b := f.batch
	defer func() { // b aliases the entries, which the caller reuses
		clear(b.staged)
		clear(b.recs)
		clear(b.stagedModels)
		clear(b.models)
		b.refs, b.applied, b.pending = nil, 0, 0
	}()
	for _, e := range entries {
		if err := b.Add(e); err != nil {
			return 0, err
		}
	}
	if b.refs == nil {
		return 0, fmt.Errorf("%w: batch of %d entries carries no refs entry", checkpoint.ErrCorrupt, len(entries))
	}
	man, err := decodeRefs(b.refs)
	if err != nil {
		return 0, err
	}
	loaded, err := loadModels(b.models, base.Models)
	if err != nil {
		return 0, err
	}
	clear(f.named)
	for _, ref := range man.Refs {
		raw, ok := b.recs[ref.ID]
		if ok {
			if err := checkpoint.CheckSessionRecord(raw); err != nil {
				return 0, fmt.Errorf("wal session %d: %w", ref.ID, err)
			}
		} else if raw, ok = f.recs[ref.ID]; !ok {
			return 0, fmt.Errorf("%w: wal refs name live session %d with no record in base or wal", checkpoint.ErrCorrupt, ref.ID)
		}
		head, _ := checkpoint.PeekSessionRecord(raw) // checked just now, or when it was committed
		if head.Ver != ref.Ver {
			return 0, fmt.Errorf("%w: wal session %d at ver %d, refs expect %d", checkpoint.ErrCorrupt, ref.ID, head.Ver, ref.Ver)
		}
		f.named[ref.ID] = struct{}{}
	}

	for id := range f.named {
		if raw, ok := b.recs[id]; ok {
			f.recs[id] = append(f.recs[id][:0], raw...)
		}
	}
	for id := range f.recs {
		if _, ok := f.named[id]; !ok {
			delete(f.recs, id)
		}
	}
	for key, clf := range loaded {
		base.Models[key] = clf
		base.ModelMACs[key] = b.models[key].MACs
	}
	f.refs = append(f.refs[:0], b.refs...)
	f.applied += b.applied
	return len(man.Refs), nil
}
