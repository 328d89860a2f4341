// Package checkpoint is the crash-safe persistence subsystem of the serving
// fleet: it snapshots a whole serve.Hub — every registry model, each
// session's ingest and debounce state, and the hub manifest — into a
// versioned, CRC-checked, atomically-renamed checkpoint directory, and loads
// it back so a restarted daemon resumes serving without retraining and with
// bitwise-identical subsequent predictions.
//
// # On-disk layout
//
// A checkpoint root holds numbered checkpoint directories:
//
//	<root>/
//	  ckpt-00000041/          ← one complete, immutable checkpoint
//	    MANIFEST              ← file kind 1: hub config, model index, counters
//	    model-0.bin           ← file kind 2: models.Save payload per registry key
//	    sessions.bin          ← file kind 3: one record per live session
//	  ckpt-00000042/
//	  .tmp-00000043/          ← in-progress write; never read
//
// Every file is framed by the record layer in format.go (magic, format
// version, per-record CRC-32C). A checkpoint becomes visible only by the
// atomic rename of its temp directory, so readers never observe a partial
// write; a crash mid-save leaves a .tmp-* directory that the next Save
// sweeps. Save prunes old checkpoints, keeping the newest DefaultKeep, and
// Load falls back to the previous checkpoint when the newest is damaged —
// corruption costs one checkpoint interval, never the fleet.
//
// The full normative format specification is in ARCHITECTURE.md.
//
// The package deliberately knows nothing about serve.Hub: it moves FleetState
// values to and from disk. internal/serve owns the conversion between a live
// hub and a FleetState (Hub.Checkpoint / RestoreHub), keeping the dependency
// one-directional.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cognitivearm/internal/control"
	"cognitivearm/internal/models"
	"cognitivearm/internal/obs"

	// Register the ensemble codec so checkpoints holding ensembles load.
	_ "cognitivearm/internal/ensemble"
)

// DefaultKeep is how many complete checkpoints Save retains. Two generations
// of fallback cover the realistic failure (a torn newest checkpoint) without
// letting the directory grow without bound.
const DefaultKeep = 3

// ErrNoCheckpoint reports an empty (or missing) checkpoint root.
var ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")

// HubConfig mirrors serve.Config in plain persisted fields.
type HubConfig struct {
	Shards              int
	MaxSessionsPerShard int
	TickHz              float64
	MaxIdleTicks        int
	LatencyWindow       int
}

// ModelEntry indexes one serialized registry model.
type ModelEntry struct {
	// Key is the registry key sessions resolve the model by.
	Key string
	// File is the payload filename within the checkpoint directory that
	// holds the model — or, when Seq is non-zero, within checkpoint Seq's
	// directory under the same root. Models are immutable once resolved in
	// the registry, so incremental checkpoints reference them instead of
	// rewriting megabytes of identical weights every interval.
	File string
	// MACs is the per-inference MAC estimate stored alongside the model.
	MACs int64
	// Seq is the sequence number of the checkpoint directory holding File;
	// 0 means this checkpoint's own directory.
	Seq uint64
}

// ShardCounters is one shard's monotonic metrics baseline, restored so
// fleet-wide throughput counters survive a restart.
type ShardCounters struct {
	Ticks, Inferences, Batches, Evictions, SamplesIn uint64
}

// DirFormatV2 is the current checkpoint-directory format generation: a v2
// manifest may reference session records and model payloads stored by
// earlier checkpoints under the same root (incremental, dirty-only saves).
// Directories without a Format field (the original layout) are read as
// fully self-contained. The record framing (format.go) is unchanged.
const DirFormatV2 = 2

// DefaultCompactEvery bounds an incremental chain: after this many
// consecutive incremental checkpoints, the next Hub.Checkpoint performs a
// full rewrite, so a restore never resolves records across more than
// DefaultCompactEvery directories and pruning can eventually reclaim old
// ones.
const DefaultCompactEvery = 8

// SessionRef is one session's entry in a v2 manifest: where its full record
// lives, which version of the session it captures, and the fast-drifting
// scheduler fields that change every tick even when the signal path does not.
// An idle session's heavy state (rolling window, IIR delay lines, debounce
// ring, counters, pending samples) is immutable between checkpoints, so the
// manifest carries only this ~40-byte entry for it and the record bytes are
// referenced from the checkpoint that last wrote them.
type SessionRef struct {
	// ID identifies the session; Ver is its mutation counter at capture time
	// and must match the referenced record's Ver on load.
	ID, Ver uint64
	// Seq is the checkpoint whose sessions.bin holds the full record; 0
	// means this checkpoint's own.
	Seq uint64
	// SampleAcc and IdleTicks are the volatile overlay: they advance every
	// tick regardless of traffic, so they live here (rewritten each
	// checkpoint) and overwrite the referenced record's values on load —
	// which is what makes an incremental restore bitwise-identical to a
	// full one.
	SampleAcc float64
	IdleTicks int
}

// Manifest describes one checkpoint: everything needed to rebuild the hub
// shell before session records are replayed into it.
type Manifest struct {
	// Seq is the checkpoint sequence number (monotonic per root directory).
	Seq uint64
	// Hub is the serving configuration the fleet ran under.
	Hub HubConfig
	// NextID seeds the hub's session-ID allocator past every persisted ID.
	NextID uint64
	// Models indexes the model payload files (local or, for Seq != 0
	// entries of a v2 manifest, in an earlier checkpoint's directory).
	Models []ModelEntry
	// Sessions is the expected record count of this directory's
	// sessions.bin; a mismatch means a torn sessions file even when each
	// present record's CRC holds. In a v2 manifest this counts only the
	// dirty records written here, not the whole fleet.
	Sessions int
	// Shards holds per-shard counter baselines, indexed by shard.
	Shards []ShardCounters
	// Format is the directory-format generation (0 or 1 = self-contained
	// original layout; DirFormatV2 = may reference earlier checkpoints).
	Format int
	// Base is the Seq of the checkpoint this one increments on (0 = full
	// rewrite). Informational: refs carry absolute seqs, so resolution
	// never walks the Base chain.
	Base uint64
	// Increments counts consecutive incremental checkpoints since the last
	// full one; Hub.Checkpoint compacts (full rewrite) when it reaches
	// DefaultCompactEvery.
	Increments int
	// WalSeq is the last sealed write-ahead-log entry sequence this
	// checkpoint covers (0 = no WAL in play, or a pre-WAL manifest). WAL
	// replay applies only entries with seq > WalSeq, and WAL compaction may
	// truncate segments whose entries are all <= WalSeq.
	WalSeq uint64
	// Refs lists every live session (v2 only): the complete fleet view,
	// in ID order, with Seq pointing at the directory holding each full
	// record and the volatile overlay fields.
	Refs []SessionRef
}

// RefIndex returns the manifest's session references keyed by ID, with Seq
// resolved to an absolute sequence number (entries written by this
// checkpoint get its own Seq) — the view the next incremental capture
// compares live sessions against.
func (m *Manifest) RefIndex() map[uint64]SessionRef {
	out := make(map[uint64]SessionRef, len(m.Refs))
	for _, r := range m.Refs {
		if r.Seq == 0 {
			r.Seq = m.Seq
		}
		out[r.ID] = r
	}
	return out
}

// ModelIndex returns the manifest's model entries keyed by registry key,
// with Seq resolved to an absolute sequence number.
func (m *Manifest) ModelIndex() map[string]ModelEntry {
	out := make(map[string]ModelEntry, len(m.Models))
	for _, e := range m.Models {
		if e.Seq == 0 {
			e.Seq = m.Seq
		}
		out[e.Key] = e
	}
	return out
}

// SessionRecord is the complete resumable state of one serving session.
type SessionRecord struct {
	// ID is the stable session identifier; Shard is its shard assignment,
	// preserved across restarts so restored fleets keep their balance.
	ID    uint64
	Shard int
	// Ver is the session's mutation counter (serve bumps it whenever a tick
	// ingests samples). The incremental checkpoint path rewrites a record
	// only when Ver moved; restore resumes the counter so dirtiness stays
	// comparable across daemon restarts.
	Ver uint64
	// ModelKey resolves the shared classifier; Tag is the caller's opaque
	// rebind hint (e.g. cogarmd marks sessions "demo:…" or "inlet" and uses
	// the tag to reattach a live source on restore).
	ModelKey string
	Tag      string
	// Channels and SampleRateHz reproduce the session's stream geometry.
	Channels     int
	SampleRateHz float64
	// NormMean and NormStd are the subject's normalisation constants.
	NormMean, NormStd []float64
	// SampleAcc is the fractional samples-per-tick carry; Fed and IdleTicks
	// reproduce the idle-eviction clock.
	SampleAcc float64
	Fed       bool
	IdleTicks int
	// Decoded, Agreed and Actions restore the session counters.
	Decoded, Agreed uint64
	Actions         []uint64
	// Windower and Debounce are the signal-path snapshots that make resumed
	// predictions bitwise-identical: partially filled rolling window,
	// per-channel IIR delay state, and the label-debounce ring.
	Windower control.WindowerState
	Debounce control.DebouncerState
	// Pending holds samples that were buffered in the session's source ring
	// but not yet ticked through the window at snapshot time; restore
	// prepends them to the new source so no sample is lost or reordered.
	Pending []PendingSample
}

// PendingSample is one buffered-but-unconsumed sample. It mirrors
// stream.Sample in plain persisted fields: stream.Sample itself implements
// encoding.BinaryUnmarshaler for its UDP wire format, which is not the
// persisted layout — so the checkpoint layer keeps its own plain type.
type PendingSample struct {
	Seq       uint64
	Timestamp float64
	Values    []float64
}

// FleetState is the in-memory image of one checkpoint: what serve.Hub
// captures on Checkpoint and what RestoreHub rebuilds from. Load always
// returns a fully resolved state (every session record and model present,
// volatile overlays applied), whatever mix of local and referenced pieces
// the directory held.
type FleetState struct {
	Manifest Manifest
	// Models maps registry keys to live classifiers (decoded on Load). On
	// save, only the models to be written into this directory.
	Models map[string]models.Classifier
	// ModelMACs carries each model's per-inference MAC estimate.
	ModelMACs map[string]int64
	// ModelRefs lists models this (incremental) checkpoint references from
	// earlier directories instead of rewriting. Save copies them into the
	// manifest verbatim; a self-contained state leaves this nil.
	ModelRefs []ModelEntry
	// Sessions holds the session records to write into this directory —
	// the whole fleet for a full checkpoint, the dirty subset for an
	// incremental one (Manifest.Refs then carries the full fleet view).
	Sessions []SessionRecord
}

const (
	manifestFile = "MANIFEST"
	sessionsFile = "sessions.bin"
	ckptPrefix   = "ckpt-"
	tmpPrefix    = ".tmp-"
)

// Save writes state as the next checkpoint under root, creating root if
// needed. The checkpoint is assembled in a temp directory, fsynced, and
// atomically renamed into place; only then are checkpoints older than the
// newest DefaultKeep pruned (and stale temp directories from crashed saves
// swept). It returns the path of the new checkpoint directory.
func Save(root string, state *FleetState) (string, error) {
	if state == nil {
		return "", fmt.Errorf("checkpoint: nil state")
	}
	start := time.Now()
	dir, err := save(root, state)
	if err != nil {
		ckptTel().saveErrs.Inc()
		return "", err
	}
	recordSave(&state.Manifest, dir, start)
	return dir, nil
}

// save is Save minus telemetry.
func save(root string, state *FleetState) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	man := state.Manifest
	man.Sessions = len(state.Sessions)
	// Referenced (unchanged) models first, then the locally written ones.
	man.Models = append([]ModelEntry(nil), state.ModelRefs...)

	// A unique temp dir per call keeps concurrent Saves into one root (e.g.
	// a periodic checkpoint racing a shutdown checkpoint) from trampling
	// each other's half-written files.
	tmp, err := os.MkdirTemp(root, tmpPrefix)
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	cleanup := true
	defer func() {
		if cleanup {
			os.RemoveAll(tmp)
		}
	}()

	// Model payloads, in sorted key order for stable file naming.
	keys := make([]string, 0, len(state.Models))
	for k := range state.Models {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, key := range keys {
		var payload bytes.Buffer
		if err := models.Save(&payload, state.Models[key]); err != nil {
			return "", fmt.Errorf("checkpoint: model %q: %w", key, err)
		}
		name := fmt.Sprintf("model-%d.bin", i)
		if err := writeRecordFile(filepath.Join(tmp, name), KindModel, func(fw *fileWriter) error {
			return fw.writeRecord(RecModel, payload.Bytes())
		}); err != nil {
			return "", err
		}
		man.Models = append(man.Models, ModelEntry{Key: key, File: name, MACs: state.ModelMACs[key]})
	}

	// Session records.
	if err := writeRecordFile(filepath.Join(tmp, sessionsFile), KindSessions, func(fw *fileWriter) error {
		for i := range state.Sessions {
			if err := fw.writeSession(&state.Sessions[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return "", err
	}

	// Manifest last (it indexes everything above), inside the publish loop:
	// a concurrent Save may claim our sequence number first, in which case
	// only the small manifest is rewritten with the next one and the rename
	// retried. Renaming onto an existing non-empty directory fails, which is
	// exactly the collision signal.
	var final string
	for attempt := 0; ; attempt++ {
		seq := uint64(1)
		if entries, err := listCheckpoints(root); err == nil && len(entries) > 0 {
			seq = entries[len(entries)-1].seq + 1
		}
		man.Seq = seq
		var mbuf bytes.Buffer
		if err := gob.NewEncoder(&mbuf).Encode(&man); err != nil {
			return "", fmt.Errorf("checkpoint: manifest: %w", err)
		}
		if err := writeRecordFile(filepath.Join(tmp, manifestFile), KindManifest, func(fw *fileWriter) error {
			return fw.writeRecord(RecManifest, mbuf.Bytes())
		}); err != nil {
			return "", err
		}
		final = filepath.Join(root, dirName(seq))
		err := os.Rename(tmp, final)
		if err == nil {
			break
		}
		if attempt >= 100 || !errors.Is(err, os.ErrExist) && !isDirNotEmpty(err) {
			return "", fmt.Errorf("checkpoint: publish: %w", err)
		}
	}
	cleanup = false
	syncDir(root)
	prune(root, DefaultKeep)
	return final, nil
}

// isDirNotEmpty reports the rename-onto-occupied-directory failure
// (ENOTEMPTY on Linux, reported distinctly from os.ErrExist).
func isDirNotEmpty(err error) bool {
	return errors.Is(err, syscall.ENOTEMPTY)
}

// Load reads one checkpoint directory strictly: every file must parse, every
// CRC must hold, and the session count must match the manifest. For a v2
// (possibly incremental) checkpoint it additionally resolves every session
// and model reference against sibling directories under the same root,
// verifies each referenced record's version against the manifest, and applies
// the volatile overlay — the returned state is always fully self-contained.
// Errors wrap ErrCorrupt or ErrVersion where applicable.
func Load(dir string) (*FleetState, error) {
	state, err := load(dir)
	if err != nil {
		ckptTel().loadErrs.Inc()
		return nil, err
	}
	ckptTel().loads.Inc()
	ckptTel().events.Record(obs.EvCheckpointLoad, -1, 0, int64(len(state.Sessions)), 0)
	return state, nil
}

// load is Load minus telemetry.
func load(dir string) (*FleetState, error) {
	man, err := readManifest(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	root := filepath.Dir(dir)
	state := &FleetState{
		Manifest:  *man,
		Models:    make(map[string]models.Classifier, len(man.Models)),
		ModelMACs: make(map[string]int64, len(man.Models)),
	}
	for _, me := range man.Models {
		if me.File != filepath.Base(me.File) || me.File == "" {
			return nil, fmt.Errorf("%w: manifest references path %q", ErrCorrupt, me.File)
		}
		mdir := dir
		if me.Seq != 0 && me.Seq != man.Seq {
			mdir = filepath.Join(root, dirName(me.Seq))
		}
		payloads, err := readRecordFile(filepath.Join(mdir, me.File), KindModel, RecModel)
		if err != nil {
			return nil, fmt.Errorf("model %q: %w", me.Key, err)
		}
		if len(payloads) != 1 {
			return nil, fmt.Errorf("%w: model file %q holds %d records, want 1", ErrCorrupt, me.File, len(payloads))
		}
		clf, err := models.Load(bytes.NewReader(payloads[0]))
		if err != nil {
			return nil, fmt.Errorf("%w: model %q: %v", ErrCorrupt, me.Key, err)
		}
		state.Models[me.Key] = clf
		state.ModelMACs[me.Key] = me.MACs
	}
	local, err := readSessionRecords(filepath.Join(dir, sessionsFile))
	if err != nil {
		return nil, err
	}
	if len(local) != man.Sessions {
		return nil, fmt.Errorf("%w: %d session records, manifest promises %d", ErrCorrupt, len(local), man.Sessions)
	}
	checkModel := func(rec *SessionRecord) error {
		if _, ok := state.Models[rec.ModelKey]; !ok {
			return fmt.Errorf("%w: session %d references unknown model %q", ErrCorrupt, rec.ID, rec.ModelKey)
		}
		return nil
	}
	if man.Format < DirFormatV2 {
		// Self-contained original layout: the local records are the fleet.
		for i := range local {
			if err := checkModel(&local[i]); err != nil {
				return nil, err
			}
			state.Sessions = append(state.Sessions, local[i])
		}
		return state, nil
	}

	// v2: the manifest's refs are the fleet view; each resolves to a local
	// record or one stored by an earlier checkpoint, version-checked and
	// with the volatile scheduler fields overlaid.
	localByID := make(map[uint64]*SessionRecord, len(local))
	for i := range local {
		localByID[local[i].ID] = &local[i]
	}
	remote := map[uint64]map[uint64]*SessionRecord{}
	localUsed := 0
	for _, ref := range man.Refs {
		var rec *SessionRecord
		if ref.Seq == 0 || ref.Seq == man.Seq {
			rec = localByID[ref.ID]
			if rec == nil {
				return nil, fmt.Errorf("%w: manifest references local session %d not in sessions.bin", ErrCorrupt, ref.ID)
			}
			localUsed++
		} else {
			byID, ok := remote[ref.Seq]
			if !ok {
				recs, err := readSessionRecords(filepath.Join(root, dirName(ref.Seq), sessionsFile))
				if err != nil {
					return nil, fmt.Errorf("checkpoint %d (referenced): %w", ref.Seq, err)
				}
				byID = make(map[uint64]*SessionRecord, len(recs))
				for i := range recs {
					byID[recs[i].ID] = &recs[i]
				}
				remote[ref.Seq] = byID
			}
			rec = byID[ref.ID]
			if rec == nil {
				return nil, fmt.Errorf("%w: session %d not found in referenced checkpoint %d", ErrCorrupt, ref.ID, ref.Seq)
			}
		}
		if rec.Ver != ref.Ver {
			return nil, fmt.Errorf("%w: session %d version %d, manifest expects %d", ErrCorrupt, ref.ID, rec.Ver, ref.Ver)
		}
		if err := checkModel(rec); err != nil {
			return nil, err
		}
		// Volatile overlay: the manifest's scheduler fields are current even
		// when the record predates this checkpoint.
		out := *rec
		out.SampleAcc = ref.SampleAcc
		out.IdleTicks = ref.IdleTicks
		state.Sessions = append(state.Sessions, out)
	}
	if localUsed != len(local) {
		return nil, fmt.Errorf("%w: sessions.bin holds %d records but refs use %d", ErrCorrupt, len(local), localUsed)
	}
	return state, nil
}

// readSessionRecords reads and decodes every session record of one framed
// sessions file.
func readSessionRecords(path string) ([]SessionRecord, error) {
	payloads, err := readRecordFile(path, KindSessions, RecSession)
	if err != nil {
		return nil, err
	}
	recs := make([]SessionRecord, len(payloads))
	for i, p := range payloads {
		if err := DecodeSessionRecord(p, &recs[i]); err != nil {
			return nil, fmt.Errorf("%s: session record %d: %w", filepath.Base(path), i, err)
		}
	}
	return recs, nil
}

// dirName renders the directory name of checkpoint seq.
func dirName(seq uint64) string {
	return fmt.Sprintf("%s%08d", ckptPrefix, seq)
}

// LoadLatest loads the newest valid checkpoint under root, walking backward
// past damaged ones (a torn or bit-flipped newest checkpoint costs one
// interval of state, not the fleet). It returns the loaded state and the
// directory it came from, or ErrNoCheckpoint when root holds none; if every
// present checkpoint is damaged, the newest one's error is returned.
func LoadLatest(root string) (*FleetState, string, error) {
	entries, err := listCheckpoints(root)
	if err != nil || len(entries) == 0 {
		return nil, "", ErrNoCheckpoint
	}
	var firstErr error
	for i := len(entries) - 1; i >= 0; i-- {
		dir := filepath.Join(root, entries[i].name)
		state, err := Load(dir)
		if err == nil {
			return state, dir, nil
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("checkpoint: %s: %w", entries[i].name, err)
		}
	}
	return nil, "", firstErr
}

// Latest returns the newest checkpoint directory under root, without
// validating it.
func Latest(root string) (string, bool) {
	entries, err := listCheckpoints(root)
	if err != nil || len(entries) == 0 {
		return "", false
	}
	return filepath.Join(root, entries[len(entries)-1].name), true
}

// LatestManifest reads the newest valid manifest under root without loading
// models or session records — the cheap fleet view an incremental save
// compares live sessions against. Like LoadLatest it walks backward past
// checkpoints whose manifest is damaged; it returns ErrNoCheckpoint when
// none is readable (callers then write a full checkpoint).
func LatestManifest(root string) (*Manifest, error) {
	entries, err := listCheckpoints(root)
	if err != nil || len(entries) == 0 {
		return nil, ErrNoCheckpoint
	}
	var firstErr error
	for i := len(entries) - 1; i >= 0; i-- {
		man, err := readManifest(filepath.Join(root, entries[i].name, manifestFile))
		if err == nil {
			return man, nil
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("checkpoint: %s: %w", entries[i].name, err)
		}
	}
	return nil, firstErr
}

type ckptEntry struct {
	name string
	seq  uint64
}

// listCheckpoints returns complete checkpoints sorted by ascending sequence.
func listCheckpoints(root string) ([]ckptEntry, error) {
	des, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var out []ckptEntry
	for _, de := range des {
		if !de.IsDir() || !strings.HasPrefix(de.Name(), ckptPrefix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimPrefix(de.Name(), ckptPrefix), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, ckptEntry{name: de.Name(), seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// prune removes checkpoints beyond the newest keep — except directories that
// a kept checkpoint's manifest still references for session records or model
// payloads (incremental chains) — plus abandoned temp directories from
// crashed saves. Referenced directories are reclaimed once every manifest
// referencing them rotates out, which compaction guarantees happens within
// DefaultCompactEvery + keep checkpoints.
func prune(root string, keep int) {
	entries, err := listCheckpoints(root)
	if err != nil {
		return
	}
	referenced := map[uint64]bool{}
	for i := len(entries) - keep; i < len(entries); i++ {
		if i < 0 {
			continue
		}
		man, err := readManifest(filepath.Join(root, entries[i].name, manifestFile))
		if err != nil {
			continue // unreadable manifest: nothing provable to protect
		}
		for _, r := range man.Refs {
			if r.Seq != 0 && r.Seq != man.Seq {
				referenced[r.Seq] = true
			}
		}
		for _, e := range man.Models {
			if e.Seq != 0 && e.Seq != man.Seq {
				referenced[e.Seq] = true
			}
		}
		if man.Base != 0 {
			referenced[man.Base] = true
		}
	}
	for i := 0; i+keep < len(entries); i++ {
		if referenced[entries[i].seq] {
			continue
		}
		os.RemoveAll(filepath.Join(root, entries[i].name))
	}
	des, err := os.ReadDir(root)
	if err != nil {
		return
	}
	for _, de := range des {
		if !de.IsDir() || !strings.HasPrefix(de.Name(), tmpPrefix) {
			continue
		}
		// Temp dirs belong to in-flight Saves; one that has sat for longer
		// than any plausible write is debris from a crashed process.
		if info, err := de.Info(); err == nil && time.Since(info.ModTime()) > staleTmpAge {
			os.RemoveAll(filepath.Join(root, de.Name()))
		}
	}
}

// staleTmpAge is how old a temp directory must be before prune treats it as
// debris from a crashed Save rather than a concurrent in-flight one.
const staleTmpAge = 10 * time.Minute

// writeRecordFile writes one framed file — header, then whatever records
// write frames — and fsyncs it.
func writeRecordFile(path string, kind uint16, write func(*fileWriter) error) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	fw, err := newFileWriter(f, kind)
	if err == nil {
		err = write(fw)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checkpoint: write %s: %w", filepath.Base(path), err)
	}
	return nil
}

// readRecordFile reads and CRC-verifies every record of one framed file.
func readRecordFile(path string, kind uint16, wantTyp byte) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	fr, err := newFileReader(f, kind)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	var out [][]byte
	for {
		typ, payload, err := fr.readRecord()
		if err != nil {
			if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion) {
				return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
			}
			break // clean EOF
		}
		if typ != wantTyp {
			return nil, fmt.Errorf("%s: %w: record type %d, want %d", filepath.Base(path), ErrCorrupt, typ, wantTyp)
		}
		out = append(out, payload)
	}
	return out, nil
}

// readManifest reads the single manifest record.
func readManifest(path string) (*Manifest, error) {
	payloads, err := readRecordFile(path, KindManifest, RecManifest)
	if err != nil {
		return nil, err
	}
	if len(payloads) != 1 {
		return nil, fmt.Errorf("%w: manifest holds %d records, want 1", ErrCorrupt, len(payloads))
	}
	var man Manifest
	if err := gob.NewDecoder(bytes.NewReader(payloads[0])).Decode(&man); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if man.Hub.Shards < 1 || man.Hub.MaxSessionsPerShard < 1 || man.Hub.TickHz <= 0 {
		return nil, fmt.Errorf("%w: manifest hub config %+v", ErrCorrupt, man.Hub)
	}
	if len(man.Shards) != man.Hub.Shards {
		return nil, fmt.Errorf("%w: manifest has %d shard baselines for %d shards", ErrCorrupt, len(man.Shards), man.Hub.Shards)
	}
	if man.Format > DirFormatV2 {
		return nil, fmt.Errorf("%w: directory format %d, reader supports <= %d", ErrVersion, man.Format, DirFormatV2)
	}
	return &man, nil
}

// syncDir best-effort fsyncs a directory so a just-published rename survives
// power loss. Failure is ignored: some filesystems refuse directory fsync,
// and the rename itself is already atomic on the journaled filesystems the
// daemon targets.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
