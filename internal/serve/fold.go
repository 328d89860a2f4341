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
// migration receiver) of a captured delta (Hub.CaptureDelta) as WAL entries:
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
	buf  []byte              // reusable entry-encoding buffer
}

// Append writes delta to sink as one flush: its unsent models, its session
// records, and the refs entry that commits them. Sealing is the caller's.
func (d *DeltaEncoder) Append(sink EntrySink, delta *checkpoint.FleetState) error {
	if err := d.models(sink, delta); err != nil {
		return err
	}
	for i := range delta.Sessions {
		if err := d.session(sink, &delta.Sessions[i]); err != nil {
			return err
		}
	}
	return d.refs(sink, delta)
}

func (d *DeltaEncoder) models(sink EntrySink, delta *checkpoint.FleetState) error {
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

func (d *DeltaEncoder) session(sink EntrySink, rec *checkpoint.SessionRecord) error {
	d.buf = checkpoint.AppendSessionRecord(d.buf[:0], rec)
	_, err := sink.Append(wal.KindSession, d.buf)
	return err
}

func (d *DeltaEncoder) refs(sink EntrySink, delta *checkpoint.FleetState) error {
	man := delta.Manifest
	man.Sessions = len(delta.Sessions)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&man); err != nil {
		return fmt.Errorf("serve: encode refs: %w", err)
	}
	_, err := sink.Append(wal.KindRefs, buf.Bytes())
	return err
}

// Fold turns a run of WAL entries back into fleet state. Add stages entries;
// Resolve folds what was committed over an optional base.
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
	var man checkpoint.Manifest
	if err := gob.NewDecoder(bytes.NewReader(f.refs)).Decode(&man); err != nil {
		return nil, fmt.Errorf("%w: wal refs manifest: %v", checkpoint.ErrCorrupt, err)
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
	loaded := make(map[string]models.Classifier)
	for key, wm := range f.models {
		if _, ok := base.Models[key]; ok {
			continue
		}
		clf, err := models.Load(bytes.NewReader(wm.Payload))
		if err != nil {
			return nil, fmt.Errorf("%w: wal model %q: %v", checkpoint.ErrCorrupt, key, err)
		}
		loaded[key] = clf
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
