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
//	  ckpt-00000041/          ← one complete, immutable, self-contained checkpoint
//	    MANIFEST              ← file kind 1: hub config, model index, counters
//	    model-0.bin           ← file kind 2: models.Save payload per registry key
//	    sessions.bin          ← file kind 3: one record per live session — the fleet
//	  ckpt-00000042/
//	  .tmp-00000043/          ← in-progress write; never read
//
// Every file is framed by the record layer in format.go (magic, format
// version, per-record CRC-32C). A checkpoint becomes visible only by the
// atomic rename of its temp directory, so readers never observe a partial
// write; a crash mid-save leaves a .tmp-* directory that the next Save
// sweeps. Every checkpoint is a full snapshot: Load reads the files of the
// one directory it is given and nothing else, so any ckpt-* directory can be
// copied, loaded or deleted on its own (the write-ahead log is the system's
// only incremental format). Save prunes old checkpoints, keeping the newest
// DefaultKeep, and LoadLatest falls back to the previous checkpoint when the
// newest is damaged — corruption costs one checkpoint interval, never the
// fleet.
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
	// File is the payload filename within the checkpoint directory; a
	// manifest naming anything but a plain file name is refused.
	File string
	// MACs is the per-inference MAC estimate stored alongside the model.
	MACs int64
}

// ShardCounters is one shard's monotonic metrics baseline, restored so
// fleet-wide throughput counters survive a restart.
type ShardCounters struct {
	Ticks, Inferences, Batches, Evictions, SamplesIn uint64
}

// dirFormat is the checkpoint-directory format generation Save stamps into
// Manifest.Format and the only one readManifest accepts. Formats 0 to 2 let a
// directory reference session records and model payloads held by sibling
// directories; gob would silently drop those references on decode and load
// such a directory as a partial fleet, so it is refused with ErrVersion
// instead. The record framing (format.go) is unchanged.
const dirFormat = 3

// SessionRef is one session's entry in a WAL refs view (wal.KindRefs, see
// serve.Fold): which version of the session the view captures, and the
// fast-drifting scheduler fields that change every tick even when the signal
// path does not. An idle session's heavy state (rolling window, IIR delay
// lines, debounce ring, counters, pending samples) is immutable between
// flushes, so a delta carries only this entry for it and the fold takes the
// record from an earlier flush or the checkpoint base.
type SessionRef struct {
	// ID identifies the session; Ver is its mutation counter at capture time
	// and must match the resolved record's Ver.
	ID, Ver uint64
	// SampleAcc and IdleTicks are the volatile overlay: they advance every
	// tick regardless of traffic, so they ride in every refs view and
	// overwrite the resolved record's values — which is what makes a folded
	// delta bitwise-identical to a full capture.
	SampleAcc float64
	IdleTicks int
}

// Manifest describes one checkpoint: everything needed to rebuild the hub
// shell before session records are replayed into it. The same struct, gob
// encoded, is the payload of a WAL refs entry, which is what Refs is for.
type Manifest struct {
	// Seq is the checkpoint sequence number (monotonic per root directory).
	Seq uint64
	// Hub is the serving configuration the fleet ran under.
	Hub HubConfig
	// NextID seeds the hub's session-ID allocator past every persisted ID.
	NextID uint64
	// Models indexes the directory's model payload files.
	Models []ModelEntry
	// Sessions is the record count of the directory's sessions.bin — the
	// fleet size; a mismatch means a torn sessions file even when each
	// present record's CRC holds. It is compared after the file is read,
	// never used to size an allocation.
	Sessions int
	// Shards holds per-shard counter baselines, indexed by shard.
	Shards []ShardCounters
	// Format is the directory-format generation; Save stamps dirFormat and
	// readManifest refuses anything else.
	Format int
	// Increments is always zero: every checkpoint is a full snapshot. The
	// field remains only because the frozen benchmark rig reads it (ROADMAP
	// item 5 removes it).
	Increments int
	// WalSeq is the last sealed write-ahead-log entry sequence this
	// checkpoint covers (0 = no WAL in play). WAL replay applies only
	// entries with seq > WalSeq, and WAL compaction may truncate segments
	// whose entries are all <= WalSeq.
	WalSeq uint64
	// Refs is the live view of a WAL refs entry: every live session, in ID
	// order (Hub.CaptureDelta fills it, Fold.Resolve reads it). A directory
	// manifest never carries it — sessions.bin is the fleet — so Save drops
	// it.
	Refs []SessionRef
}

// RefIndex returns the manifest's session references keyed by ID — the view
// the next delta capture compares live sessions against.
func (m *Manifest) RefIndex() map[uint64]SessionRef {
	return m.RefIndexInto(nil)
}

// RefIndexInto is RefIndex into dst, which is cleared first and allocated
// only when nil, so a capture loop can keep one index for its lifetime.
func (m *Manifest) RefIndexInto(dst map[uint64]SessionRef) map[uint64]SessionRef {
	if dst == nil {
		dst = make(map[uint64]SessionRef, len(m.Refs))
	}
	clear(dst)
	for _, r := range m.Refs {
		dst[r.ID] = r
	}
	return dst
}

// SessionRecord is the complete resumable state of one serving session.
type SessionRecord struct {
	// ID is the stable session identifier; Shard is its shard assignment,
	// preserved across restarts so restored fleets keep their balance.
	ID    uint64
	Shard int
	// Ver is the session's mutation counter (serve bumps it whenever a tick
	// ingests samples). A WAL delta carries a record only when Ver moved;
	// restore resumes the counter so dirtiness stays comparable across
	// daemon restarts.
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
// captures on Checkpoint, what Load returns and what RestoreHub rebuilds
// from. A WAL delta (Hub.CaptureDelta) reuses the type with Sessions holding
// only the dirty records and Manifest.Refs the live view.
type FleetState struct {
	Manifest Manifest
	// Models maps registry keys to live classifiers (decoded on Load).
	Models map[string]models.Classifier
	// ModelMACs carries each model's per-inference MAC estimate.
	ModelMACs map[string]int64
	// Sessions holds one record per live session: the whole fleet.
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
	var recs Records
	for i := range state.Sessions {
		recs.Append(&state.Sessions[i])
	}
	return SaveRecords(root, state, &recs)
}

// SaveRecords is Save with the fleet's session records already encoded, in
// the order sessions.bin lists them: recs stands in for state.Sessions, which
// is not read. A live capture encodes straight into such an arena, so its
// records reach disk without ever being materialised as SessionRecords.
func SaveRecords(root string, state *FleetState, recs *Records) (string, error) {
	if state == nil {
		return "", fmt.Errorf("checkpoint: nil state")
	}
	start := time.Now()
	dir, err := save(root, state, recs)
	if err != nil {
		ckptTel().saveErrs.Inc()
		return "", err
	}
	recordSave(dir, start)
	return dir, nil
}

// save is SaveRecords minus telemetry.
func save(root string, state *FleetState, recs *Records) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	man := state.Manifest
	man.Format = dirFormat
	man.Sessions = recs.Len()
	man.Models, man.Refs = nil, nil

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
		for i := 0; i < recs.Len(); i++ {
			if err := fw.writeSession(i, recs.At(i)); err != nil {
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
// CRC must hold, and the session count must match the manifest. It opens
// MANIFEST, the model files the manifest names and sessions.bin inside dir,
// and no other path. Errors wrap ErrCorrupt or ErrVersion where applicable.
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
	state := &FleetState{
		Manifest:  *man,
		Models:    make(map[string]models.Classifier, len(man.Models)),
		ModelMACs: make(map[string]int64, len(man.Models)),
	}
	for _, me := range man.Models {
		payloads, err := readRecordFile(filepath.Join(dir, me.File), KindModel, RecModel)
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
	state.Sessions, err = readSessionRecords(filepath.Join(dir, sessionsFile))
	if err != nil {
		return nil, err
	}
	if len(state.Sessions) != man.Sessions {
		return nil, fmt.Errorf("%w: %d session records, manifest promises %d", ErrCorrupt, len(state.Sessions), man.Sessions)
	}
	for i := range state.Sessions {
		rec := &state.Sessions[i]
		if _, ok := state.Models[rec.ModelKey]; !ok {
			return nil, fmt.Errorf("%w: session %d references unknown model %q", ErrCorrupt, rec.ID, rec.ModelKey)
		}
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
// models or session records — the cheap view /statusz reports. Like
// LoadLatest it walks backward past checkpoints whose manifest is damaged; it
// returns ErrNoCheckpoint when root holds no checkpoint.
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

// prune removes every checkpoint but the newest keep, plus abandoned temp
// directories from crashed saves.
func prune(root string, keep int) {
	entries, err := listCheckpoints(root)
	if err != nil {
		return
	}
	for i := 0; i+keep < len(entries); i++ {
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
	if man.Format != dirFormat {
		return nil, fmt.Errorf("%w: directory format %d, reader supports %d", ErrVersion, man.Format, dirFormat)
	}
	if man.Hub.Shards < 1 || man.Hub.MaxSessionsPerShard < 1 || man.Hub.TickHz <= 0 {
		return nil, fmt.Errorf("%w: manifest hub config %+v", ErrCorrupt, man.Hub)
	}
	if len(man.Shards) != man.Hub.Shards {
		return nil, fmt.Errorf("%w: manifest has %d shard baselines for %d shards", ErrCorrupt, len(man.Shards), man.Hub.Shards)
	}
	for _, me := range man.Models {
		if me.File == "" || me.File == "." || me.File == ".." || me.File != filepath.Base(me.File) {
			return nil, fmt.Errorf("%w: manifest references path %q", ErrCorrupt, me.File)
		}
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
