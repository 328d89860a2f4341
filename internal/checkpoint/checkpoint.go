// Package checkpoint is the crash-safe persistence subsystem of the serving
// fleet and the owner of the one format fleet state travels in: it snapshots
// a whole serve.Hub — every registry model, each session's ingest and
// debounce state, and the hub manifest — into an atomically-renamed
// checkpoint directory, and loads it back so a restarted daemon resumes
// serving without retraining and with bitwise-identical subsequent
// predictions.
//
// # On-disk layout
//
// A checkpoint root holds numbered checkpoint directories:
//
//	<root>/
//	  ckpt-00000041/          ← one complete, immutable, self-contained checkpoint
//	    fleet                 ← the fleet payload: view batch, then body batch
//	  ckpt-00000042/
//	  .tmp-00000043/          ← in-progress write; never read
//
// The fleet file is exactly what a live migration sends over a connection
// (WriteFleet, ReadFleet): a wal socket stream of two sealed, Merkle-rooted
// batches, the view (the manifest: hub configuration, shard counters, WAL
// fence and every session's ref) and then the body (every model and every
// session record), ending at the body's seal. The entries are the ones the
// write-ahead log journals (fold.go). A checkpoint becomes visible only by the
// atomic rename of its temp directory, so readers never observe a partial
// write; a crash mid-save leaves a .tmp-* directory that the next Save
// sweeps. Every checkpoint is a full snapshot: Load reads the one file of the
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
// values to and from disk and the wire. internal/serve owns the conversion
// between a live hub and a FleetState (Journal.Checkpoint / RestoreHub), keeping
// the dependency one-directional.
package checkpoint

import (
	"bufio"
	"errors"
	"fmt"
	"io"
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
)

// DefaultKeep is how many complete checkpoints Save retains. Two generations
// of fallback cover the realistic failure (a torn newest checkpoint) without
// letting the directory grow without bound.
const DefaultKeep = 3

var (
	// ErrNoCheckpoint reports an empty (or missing) checkpoint root.
	ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")
	// ErrCorrupt reports structurally invalid or integrity-failing fleet
	// state. All corruption errors wrap it, so callers can distinguish "bad
	// data" (errors.Is(err, ErrCorrupt)) from I/O failures.
	ErrCorrupt = errors.New("checkpoint: corrupt")
	// ErrVersion reports fleet state in a format this reader does not
	// support: a checkpoint directory from an older release, or a stream
	// from another wal version. Such state is refused whole, never migrated.
	ErrVersion = errors.New("checkpoint: unsupported format version")
)

// HubConfig mirrors serve.Config in plain persisted fields.
type HubConfig struct {
	Shards              int
	MaxSessionsPerShard int
	TickHz              float64
	MaxIdleTicks        int
	LatencyWindow       int
}

// ShardCounters is one shard's monotonic metrics baseline, restored so
// fleet-wide throughput counters survive a restart.
type ShardCounters struct {
	Ticks, Inferences, Batches, Evictions, SamplesIn uint64
}

// SessionRef is one session's entry in a refs view (wal.KindRefs, see Fold):
// which version of the session the view captures, and the
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

// Manifest describes one capture: everything needed to rebuild the hub shell
// before session records are replayed into it. Gob encoded, it is the payload
// of a refs entry: a checkpoint's view, a migration's, a WAL flush's.
type Manifest struct {
	// Seq is the checkpoint sequence number (monotonic per root directory).
	Seq uint64
	// Hub is the serving configuration the fleet ran under.
	Hub HubConfig
	// NextID seeds the hub's session-ID allocator past every persisted ID.
	NextID uint64
	// Sessions counts the session records the refs entry commits: the
	// fleet size of a checkpoint, the dirty records of a WAL flush.
	Sessions int
	// Shards holds per-shard counter baselines, indexed by shard (a
	// checkpoint's; deltas and migrations leave them home).
	Shards []ShardCounters
	// Increments is always zero: every checkpoint is a full snapshot. The
	// field remains only because the frozen benchmark rig reads it (ROADMAP
	// item 1(b) removes it).
	Increments int
	// WalSeq is the last sealed write-ahead-log entry sequence this
	// checkpoint covers (0 = no WAL in play). WAL replay applies only
	// entries with seq > WalSeq, and WAL compaction may truncate segments
	// whose entries are all <= WalSeq.
	WalSeq uint64
	// Refs is the live view: every live session (Hub.CaptureDeltaInto fills
	// it in ID order per shard, Fold.Resolve reads it). A fleet payload's
	// view names exactly the records of its body.
	Refs []SessionRef
}

// RefIndexInto returns the manifest's session references keyed by ID — the
// view the next delta capture compares live sessions against — in dst, which
// is cleared first and allocated only when nil, so a capture loop can keep
// one index for its lifetime.
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

// FleetState is the in-memory image of one checkpoint: what serve.Journal
// captures on Checkpoint, what Load and ReadFleet return and what RestoreHub
// rebuilds from. A decoded WAL delta reuses the type with Sessions holding
// only the dirty records and Manifest.Refs the live view; the WAL writer,
// Hub.CaptureDeltaInto, fills the encoded Delta instead.
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
	fleetFile  = "fleet"
	ckptPrefix = "ckpt-"
	tmpPrefix  = ".tmp-"
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
	return SaveRecords(root, state, &state.encode().Records)
}

// SaveRecords is Save with the fleet's session records already encoded: recs
// stands in for state.Sessions, which is not read. A live capture encodes
// straight into such an arena, so its records reach disk without ever being
// materialised as SessionRecords.
func SaveRecords(root string, state *FleetState, recs *Records) (string, error) {
	if state == nil {
		return "", fmt.Errorf("checkpoint: nil state")
	}
	start := time.Now()
	dir, err := save(root, &Delta{Manifest: state.Manifest, Models: state.Models, ModelMACs: state.ModelMACs, Records: *recs})
	if err != nil {
		ckptTel().saveErrs.Inc()
		return "", err
	}
	recordSave(dir, start)
	return dir, nil
}

// save is SaveRecords minus telemetry.
func save(root string, d *Delta) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
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

	// The sequence number rides in the view, so the fleet file is written
	// inside the publish loop: a concurrent Save may claim our sequence
	// number first, in which case the file is rewritten with the next one and
	// the rename retried. Renaming onto an existing non-empty directory
	// fails, which is exactly the collision signal.
	var final string
	for attempt := 0; ; attempt++ {
		seq := uint64(1)
		if entries, err := listCheckpoints(root); err == nil && len(entries) > 0 {
			seq = entries[len(entries)-1].seq + 1
		}
		d.Manifest.Seq = seq
		if err := writeFleetFile(filepath.Join(tmp, fleetFile), d); err != nil {
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

// writeFleetFile writes d as the fleet file at path and fsyncs it.
func writeFleetFile(path string, d *Delta) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	err = WriteFleet(f, d)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checkpoint: write %s: %w", fleetFile, err)
	}
	return nil
}

// isDirNotEmpty reports the rename-onto-occupied-directory failure
// (ENOTEMPTY on Linux, reported distinctly from os.ErrExist).
func isDirNotEmpty(err error) bool {
	return errors.Is(err, syscall.ENOTEMPTY)
}

// Load reads one checkpoint directory strictly: its fleet file must pass
// every ReadFleet check and end exactly at the body's seal. It opens that one
// file inside dir and no other path. Errors wrap ErrCorrupt or ErrVersion
// where applicable.
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
	f, err := openFleet(dir)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return readFleetFile(bufio.NewReaderSize(f, 64<<10), int(info.Size()))
}

// openFleet opens dir's fleet file. A checkpoint directory without one was
// written by an older release, and is refused whole.
func openFleet(dir string) (*os.File, error) {
	f, err := os.Open(filepath.Join(dir, fleetFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: no %s file, not a checkpoint of this release", ErrVersion, fleetFile)
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return f, nil
}

// readFleetFile is ReadFleet over a whole file of size bytes: nothing may
// follow the body.
func readFleetFile(r io.Reader, size int) (*FleetState, error) {
	state, err := readFleet(r, size)
	if err != nil {
		return nil, err
	}
	if n, _ := io.ReadFull(r, make([]byte, 1)); n != 0 {
		return nil, fmt.Errorf("%w: bytes past the body's seal", ErrCorrupt)
	}
	return state, nil
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

// LatestManifest reads the newest valid manifest under root — the view batch
// at the head of its fleet file, without reading models or session records:
// the cheap view /statusz reports. Like LoadLatest it walks backward past
// checkpoints whose view is damaged; it returns ErrNoCheckpoint when root
// holds no checkpoint.
func LatestManifest(root string) (*Manifest, error) {
	entries, err := listCheckpoints(root)
	if err != nil || len(entries) == 0 {
		return nil, ErrNoCheckpoint
	}
	var firstErr error
	for i := len(entries) - 1; i >= 0; i-- {
		man, err := loadManifest(filepath.Join(root, entries[i].name))
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

// loadManifest reads the view batch of dir's fleet file, and nothing past
// it: the manifest.
func loadManifest(dir string) (*Manifest, error) {
	f, err := openFleet(dir)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, view, err := readView(f)
	if err != nil {
		return nil, err
	}
	man, err := DecodeRefs(view.Data)
	if err != nil {
		return nil, err
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
