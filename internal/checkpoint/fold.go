package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sort"

	"cognitivearm/internal/models"
	"cognitivearm/internal/wal"
)

// The fleet-state format: one writer (DeltaEncoder: journal segments,
// replication tails, checkpoint files, migrations) and one reader (Fold: WAL
// replay, the standby image, checkpoint loads, the migration receiver) of
// fleet state as WAL entries:
//
//	KindModel*   models its sink has not seen yet (walModel, gob)
//	KindSession* session records (AppendSessionRecord)
//	KindRefs     the live view that commits them (Manifest, gob)
//
// plus whatever history entries (decisions, audit) its writer interleaves. A
// fleet payload — a checkpoint's fleet file, a migration batch — is the same
// entries as a wal socket stream of two sealed batches, the view first
// (WriteFleet, ReadFleet).

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

// Delta is fleet state in encoded form: a manifest whose Refs is the live
// view, every resolved model, and the records of the captured sessions —
// every session for a full capture, the dirty ones for a delta.
type Delta struct {
	Manifest  Manifest
	Models    map[string]models.Classifier
	ModelMACs map[string]int64
	Records   Records
}

// encode returns state in encoded form, its maps shared.
func (state *FleetState) encode() *Delta {
	d := &Delta{Manifest: state.Manifest, Models: state.Models, ModelMACs: state.ModelMACs}
	for i := range state.Sessions {
		d.Records.Append(&state.Sessions[i])
	}
	return d
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
	if err := d.AppendModels(sink, delta); err != nil {
		return err
	}
	if err := appendRecords(sink, &delta.Records); err != nil {
		return err
	}
	return d.AppendRefs(sink, delta)
}

// Append is AppendDelta for a delta in record form.
func (d *DeltaEncoder) Append(sink EntrySink, state *FleetState) error {
	return d.AppendDelta(sink, state.encode())
}

// AppendModels appends a KindModel entry for every model of delta this
// encoder has not shipped yet, in key order.
func (d *DeltaEncoder) AppendModels(sink EntrySink, delta *Delta) error {
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
			return fmt.Errorf("checkpoint: encode model %q: %w", key, err)
		}
		var buf bytes.Buffer
		wm := walModel{Key: key, MACs: delta.ModelMACs[key], Payload: payload.Bytes()}
		if err := gob.NewEncoder(&buf).Encode(&wm); err != nil {
			return fmt.Errorf("checkpoint: encode model %q: %w", key, err)
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

// AppendRefs appends the KindRefs entry that commits delta: its manifest,
// counting its records.
func (d *DeltaEncoder) AppendRefs(sink EntrySink, delta *Delta) error {
	man := delta.Manifest
	man.Sessions = delta.Records.Len()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&man); err != nil {
		return fmt.Errorf("checkpoint: encode refs: %w", err)
	}
	_, err := sink.Append(wal.KindRefs, buf.Bytes())
	return err
}

func appendRecords(sink EntrySink, recs *Records) error {
	for i := 0; i < recs.Len(); i++ {
		if _, err := sink.Append(wal.KindSession, recs.At(i)); err != nil {
			return err
		}
	}
	return nil
}

// WriteFleet writes delta to w as one fleet payload: a wal socket stream of
// two sealed batches. The view batch is the refs entry alone, its Refs naming
// exactly the records of delta (the manifest's own Refs are not read); the
// body batch is every model, then every record. It is the one writer of
// checkpoint files and migration batches. A fleet with neither models nor
// records is refused: a stream has no empty batch.
func WriteFleet(w io.Writer, delta *Delta) error {
	if len(delta.Models) == 0 && delta.Records.Len() == 0 {
		return fmt.Errorf("checkpoint: an empty fleet (no model, no session) has no body to write")
	}
	view := *delta
	view.Manifest.Refs = make([]SessionRef, delta.Records.Len())
	for i := range view.Manifest.Refs {
		ref, err := PeekSessionRecord(delta.Records.At(i))
		if err != nil {
			return err
		}
		view.Manifest.Refs[i] = ref
	}
	var enc DeltaEncoder
	sw := wal.NewStreamWriter(w)
	if err := enc.AppendRefs(sw, &view); err != nil {
		return err
	}
	if _, err := sw.Seal(); err != nil {
		return err
	}
	if err := enc.AppendModels(sw, delta); err != nil {
		return err
	}
	if err := appendRecords(sw, &delta.Records); err != nil {
		return err
	}
	_, err := sw.Seal()
	return err
}

// ReadFleet reads one fleet payload off r and returns the fleet it holds,
// records in ID order. The view must decode and describe a possible hub; the
// body must hold only models and records, exactly one record per session the
// view names at the version it names, and every model a record references.
// It never reads past the body's seal, so a connection can carry an ack
// behind it. Errors wrap ErrCorrupt or ErrVersion.
func ReadFleet(r io.Reader) (*FleetState, error) { return readFleet(r, 0) }

// readFleet is ReadFleet with room reserved for size bytes of payload, the
// size of a file being read.
func readFleet(r io.Reader, size int) (*FleetState, error) {
	sr, view, err := readView(r)
	if err != nil {
		return nil, err
	}
	refs := wal.Entry{Kind: wal.KindRefs, Data: bytes.Clone(view.Data)} // the body reuses the reader's buffer
	sr.Reserve(size)
	body, _, err := sr.ReadBatch()
	if err != nil {
		return nil, fleetErr(err)
	}
	fold, records := NewFold(), 0
	for _, e := range body {
		switch e.Kind {
		case wal.KindSession:
			records++
		case wal.KindModel:
		default:
			return nil, fmt.Errorf("%w: kind-%d entry in the body batch", ErrCorrupt, e.Kind)
		}
		if err := fold.Add(e); err != nil {
			return nil, err
		}
	}
	fold.Add(refs) // a refs entry cannot fail to stage: it only commits
	state, err := fold.Resolve(nil)
	if err != nil {
		return nil, err
	}
	if records != len(state.Sessions) || records != fold.Len() {
		return nil, fmt.Errorf("%w: body holds %d records, view names %d sessions", ErrCorrupt, records, len(state.Sessions))
	}
	for i := range state.Sessions {
		if rec := &state.Sessions[i]; state.Models[rec.ModelKey] == nil {
			return nil, fmt.Errorf("%w: session %d references unknown model %q", ErrCorrupt, rec.ID, rec.ModelKey)
		}
	}
	return state, nil
}

// readView starts reading a fleet payload: its header and its view batch,
// which must be the refs entry alone.
func readView(r io.Reader) (*wal.StreamReader, wal.Entry, error) {
	sr, err := wal.NewStreamReader(r)
	if err != nil {
		return nil, wal.Entry{}, fleetErr(err)
	}
	view, _, err := sr.ReadBatch()
	if err != nil {
		return nil, wal.Entry{}, fleetErr(err)
	}
	if len(view) != 1 || view[0].Kind != wal.KindRefs {
		return nil, wal.Entry{}, fmt.Errorf("%w: view batch of %d entries, want the refs entry alone", ErrCorrupt, len(view))
	}
	return sr, view[0], nil
}

// fleetErr makes a stream refusal this package's: another wal version is
// ErrVersion, anything else the stream refuses — a payload ending before
// its body included — ErrCorrupt.
func fleetErr(err error) error {
	switch {
	case errors.Is(err, wal.ErrVersion):
		return fmt.Errorf("%w: %w", ErrVersion, err)
	case err == io.EOF:
		return fmt.Errorf("%w: fleet payload ends before its body", ErrCorrupt)
	case errors.Is(err, wal.ErrCorrupt):
		return fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return err
}

// Fold turns a run of WAL entries back into fleet state. Add stages entries;
// Resolve folds what was committed over an optional base. Apply is the
// long-lived form a standby keeps its image in.
//
// A flush is committed by its KindRefs entry, not by a seal. A log written
// today seals each flush as one batch, so a crash mid-flush leaves only an
// unsealed tail that recovery cuts off. Logs written before that sealed
// inline whenever a batch outgrew its size bound, so a crash mid-flush could
// leave sealed session records newer than any refs view; the refs-commit
// rule still recovers those to their last whole flush. ReadFleet relies on
// the rule as well: a fleet payload carries its view before its body, and
// the view is added last so that it commits the body. Session and model
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
		head, err := PeekSessionRecord(e.Data)
		if err != nil {
			return fmt.Errorf("wal entry %d: %w", e.Seq, err)
		}
		f.staged[head.ID] = e.Data
	case wal.KindModel:
		var wm walModel
		if err := gob.NewDecoder(bytes.NewReader(e.Data)).Decode(&wm); err != nil {
			return fmt.Errorf("%w: wal entry %d: model: %v", ErrCorrupt, e.Seq, err)
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
		return fmt.Errorf("%w: wal entry %d: unknown kind %d", ErrCorrupt, e.Seq, e.Kind)
	}
	f.pending++
	return nil
}

// Applied counts the entries folded so far: everything added up to and
// including the last refs entry.
func (f *Fold) Applied() int { return f.applied }

// Len counts the session records the fold holds committed: after Apply,
// exactly the sessions the newest view names.
func (f *Fold) Len() int { return len(f.recs) }

// DecodeRefs decodes a refs entry's manifest, refusing one that describes an
// impossible hub: from nothing, the manifest is the configuration a hub is
// rebuilt under. It is the one decoder of the refs layout.
func DecodeRefs(b []byte) (Manifest, error) {
	var man Manifest
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&man); err != nil {
		return man, fmt.Errorf("%w: refs manifest: %v", ErrCorrupt, err)
	}
	if h := man.Hub; h.Shards < 1 || h.MaxSessionsPerShard < 1 || h.TickHz <= 0 || len(man.Shards) > 0 && len(man.Shards) != h.Shards {
		return man, fmt.Errorf("%w: refs manifest hub config %+v with %d shard baselines", ErrCorrupt, h, len(man.Shards))
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
			return nil, fmt.Errorf("%w: wal model %q: %v", ErrCorrupt, key, err)
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
func (f *Fold) Resolve(base *FleetState) (*FleetState, error) {
	if f.refs == nil {
		return base, nil
	}
	man, err := DecodeRefs(f.refs)
	if err != nil {
		return nil, err
	}
	if base == nil {
		base = &FleetState{
			Manifest:  man,
			Models:    make(map[string]models.Classifier),
			ModelMACs: make(map[string]int64),
		}
	}
	loaded, err := loadModels(f.models, base.Models)
	if err != nil {
		return nil, err
	}
	fromBase := make(map[uint64]*SessionRecord, len(base.Sessions))
	for i := range base.Sessions {
		fromBase[base.Sessions[i].ID] = &base.Sessions[i]
	}
	out := make([]SessionRecord, len(man.Refs))
	for i, ref := range man.Refs {
		rec := &out[i]
		if raw, ok := f.recs[ref.ID]; ok {
			if err := DecodeSessionRecord(raw, rec); err != nil {
				return nil, fmt.Errorf("wal session %d: %w", ref.ID, err)
			}
		} else if b, ok := fromBase[ref.ID]; ok {
			*rec = *b
		} else {
			return nil, fmt.Errorf("%w: wal refs name live session %d with no record in base or wal", ErrCorrupt, ref.ID)
		}
		if rec.Ver != ref.Ver {
			return nil, fmt.Errorf("%w: wal session %d at ver %d, refs expect %d", ErrCorrupt, ref.ID, rec.Ver, ref.Ver)
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
// DecodeSessionRecord accepts (CheckSessionRecord, which decodes nothing).
// Only then are the batch's records copied into the fold's own per-session
// buffers, reused batch after batch, sessions the view no longer names
// dropped, and the new models added to base. On error the fold and base are
// as they were. The entries may be overwritten once Apply returns.
//
// A fold is fed by Add or by Apply, never both. Resolve(base) decodes an
// applied fold, once, when its records are needed as values: the promotion
// of a standby.
func (f *Fold) Apply(entries []wal.Entry, base *FleetState) (int, error) {
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
		return 0, fmt.Errorf("%w: batch of %d entries carries no refs entry", ErrCorrupt, len(entries))
	}
	man, err := DecodeRefs(b.refs)
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
			if err := CheckSessionRecord(raw); err != nil {
				return 0, fmt.Errorf("wal session %d: %w", ref.ID, err)
			}
		} else if raw, ok = f.recs[ref.ID]; !ok {
			return 0, fmt.Errorf("%w: wal refs name live session %d with no record in base or wal", ErrCorrupt, ref.ID)
		}
		head, _ := PeekSessionRecord(raw) // checked just now, or when it was committed
		if head.Ver != ref.Ver {
			return 0, fmt.Errorf("%w: wal session %d at ver %d, refs expect %d", ErrCorrupt, ref.ID, head.Ver, ref.Ver)
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
