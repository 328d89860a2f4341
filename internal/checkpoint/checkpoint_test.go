package checkpoint

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cognitivearm/internal/control"
	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/rf"
	"cognitivearm/internal/tensor"
)

// testState builds a small but fully populated fleet state: one random-weight
// CNN (untrained weights serialise the same as trained ones), one tiny
// forest, and two sessions with mid-stream signal state.
func testState(t *testing.T) *FleetState {
	t.Helper()
	spec := models.Spec{Family: models.FamilyCNN, WindowSize: 40, Optimizer: "adam", LR: 1e-3,
		ConvLayers: 1, Filters: 4, Kernel: 5, Stride: 2, Pool: "none"}
	net, err := models.BuildNet(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	cnn := &models.NNClassifier{Net: net, Spec: spec}

	rng := tensor.NewRNG(3)
	X := make([][]float64, 60)
	y := make([]int, len(X))
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = i % eeg.NumActions
	}
	forest, err := rf.Fit(X, y, eeg.NumActions, rf.Config{Trees: 5, MaxDepth: 4, MinSamplesSplit: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rfc := &models.RFClassifier{Forest: forest, Spec: models.Spec{Family: models.FamilyRF, WindowSize: 40, Trees: 5, MaxDepth: 4}}

	win, err := control.NewWindower(125, 4, 40, dataset.Stats{Mean: make([]float64, 4), Std: []float64{1, 1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 17; i++ { // partially filled window + filter state
		win.Push([]float64{float64(i), 1, -1, 0.25 * float64(i)})
	}
	var deb control.Debouncer
	deb.Observe(eeg.Left)
	deb.Observe(eeg.Left)

	return &FleetState{
		Manifest: Manifest{
			Hub:    HubConfig{Shards: 2, MaxSessionsPerShard: 8, TickHz: 15, MaxIdleTicks: 30, LatencyWindow: 64},
			NextID: 9,
			Shards: []ShardCounters{{Ticks: 100, Inferences: 42, Batches: 21, SamplesIn: 830}, {Ticks: 100}},
		},
		Models:    map[string]models.Classifier{"cnn": cnn, "forest": rfc},
		ModelMACs: map[string]int64{"cnn": 1234, "forest": 20},
		Sessions: []SessionRecord{
			{
				ID: 3, Shard: 0, ModelKey: "cnn", Tag: "demo:1:0", Channels: 4, SampleRateHz: 125,
				NormMean: []float64{0, 1, 2, 3}, NormStd: []float64{1, 1, 2, 2},
				SampleAcc: 0.333, Fed: true, IdleTicks: 1, Decoded: 12, Agreed: 4,
				Actions:  []uint64{5, 4, 3},
				Windower: win.State(), Debounce: deb.State(),
				Pending: []PendingSample{{Seq: 9, Timestamp: 1.5, Values: []float64{1, 2, 3, 4}}},
			},
			{
				ID: 7, Shard: 1, ModelKey: "forest", Tag: "inlet", Channels: 4, SampleRateHz: 125,
				Actions:  []uint64{0, 0, 0},
				Windower: win.State(), Debounce: deb.State(),
			},
		},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	root := t.TempDir()
	state := testState(t)
	// A state that came out of a WAL fold carries the refs view; the
	// directory manifest must not (sessions.bin is the fleet).
	state.Manifest.Refs = []SessionRef{{ID: 3, Ver: 1}, {ID: 7}}
	dir, err := Save(root, state)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Manifest.Seq != 1 {
		t.Fatalf("seq = %d, want 1", loaded.Manifest.Seq)
	}
	if m := loaded.Manifest; m.Format != dirFormat || m.Refs != nil || m.Sessions != len(state.Sessions) {
		t.Fatalf("manifest format %d, %d refs, %d sessions; want format %d, no refs, %d sessions",
			m.Format, len(m.Refs), m.Sessions, dirFormat, len(state.Sessions))
	}
	if loaded.Manifest.Hub != state.Manifest.Hub {
		t.Fatalf("hub config mangled: %+v vs %+v", loaded.Manifest.Hub, state.Manifest.Hub)
	}
	if loaded.Manifest.NextID != 9 {
		t.Fatalf("next ID = %d, want 9", loaded.Manifest.NextID)
	}
	if !reflect.DeepEqual(loaded.Manifest.Shards, state.Manifest.Shards) {
		t.Fatalf("shard counters mangled: %+v", loaded.Manifest.Shards)
	}
	if !reflect.DeepEqual(loaded.Sessions, state.Sessions) {
		t.Fatalf("session records mangled:\n got %+v\nwant %+v", loaded.Sessions, state.Sessions)
	}
	if !reflect.DeepEqual(loaded.ModelMACs, state.ModelMACs) {
		t.Fatalf("model MACs mangled: %+v", loaded.ModelMACs)
	}
	// Models must predict bitwise-identically after the round trip.
	rng := tensor.NewRNG(11)
	for key, orig := range state.Models {
		got, ok := loaded.Models[key]
		if !ok {
			t.Fatalf("model %q missing after load", key)
		}
		for trial := 0; trial < 5; trial++ {
			x := tensor.New(40, eeg.NumChannels)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			p1, p2 := orig.Probs(x), got.Probs(x)
			if !reflect.DeepEqual(p1, p2) {
				t.Fatalf("model %q probs diverge after round trip: %v vs %v", key, p1, p2)
			}
		}
	}
}

func TestLoadLatestFallsBackPastCorruption(t *testing.T) {
	root := t.TempDir()
	state := testState(t)
	if _, err := Save(root, state); err != nil {
		t.Fatal(err)
	}
	second, err := Save(root, state)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(second, sessionsFile), -10)

	loaded, dir, err := LoadLatest(root)
	if err != nil {
		t.Fatalf("LoadLatest should fall back to the older checkpoint: %v", err)
	}
	if filepath.Base(dir) != "ckpt-00000001" {
		t.Fatalf("loaded %s, want the older ckpt-00000001", dir)
	}
	if len(loaded.Sessions) != 2 {
		t.Fatalf("fallback checkpoint has %d sessions, want 2", len(loaded.Sessions))
	}
}

func TestCorruptFilesAreRejected(t *testing.T) {
	for _, file := range []string{manifestFile, "model-0.bin", sessionsFile} {
		root := t.TempDir()
		dir, err := Save(root, testState(t))
		if err != nil {
			t.Fatal(err)
		}
		flipByte(t, filepath.Join(dir, file), -3)
		if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: corrupted load returned %v, want ErrCorrupt", file, err)
		}
	}
}

func TestTruncatedFilesAreRejected(t *testing.T) {
	// Mid-record truncation tears the framing; record-boundary truncation of
	// sessions.bin leaves valid records whose count contradicts the manifest.
	root := t.TempDir()
	dir, err := Save(root, testState(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, sessionsFile)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-record truncation returned %v, want ErrCorrupt", err)
	}

	root2 := t.TempDir()
	dir2, err := Save(root2, testState(t))
	if err != nil {
		t.Fatal(err)
	}
	truncateLastRecord(t, filepath.Join(dir2, sessionsFile))
	if _, err := Load(dir2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing session record returned %v, want ErrCorrupt (manifest count mismatch)", err)
	}
}

func TestVersionMismatchIsRejected(t *testing.T) {
	root := t.TempDir()
	dir, err := Save(root, testState(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(raw[4:], FormatVersion+1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrVersion) {
		t.Fatalf("future-version load returned %v, want ErrVersion", err)
	}
}

// TestCheckpointSelfContained: every directory is a full snapshot, so
// retention is a plain count. After more saves than the bound the root holds
// exactly the newest DefaultKeep directories, sequence numbers keep rising
// across pruning, and with every sibling removed the newest loads whole.
func TestCheckpointSelfContained(t *testing.T) {
	root := t.TempDir()
	state := testState(t)
	var last string
	for i := 0; i < DefaultKeep+3; i++ {
		var err error
		if last, err = Save(root, state); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := listCheckpoints(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != DefaultKeep {
		t.Fatalf("%d checkpoints retained, want exactly %d", len(entries), DefaultKeep)
	}
	if filepath.Base(last) != entries[len(entries)-1].name {
		t.Fatalf("newest retained is %s, want %s", entries[len(entries)-1].name, filepath.Base(last))
	}
	if last, err = Save(root, state); err != nil {
		t.Fatal(err)
	}
	if dir, ok := Latest(root); !ok || dir != last || filepath.Base(dir) != "ckpt-00000007" {
		t.Fatalf("latest = %q, want ckpt-00000007", dir)
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(root, e.name)); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := Load(last)
	if err != nil {
		t.Fatalf("newest checkpoint does not load on its own: %v", err)
	}
	if !reflect.DeepEqual(loaded.Sessions, state.Sessions) || len(loaded.Models) != len(state.Models) {
		t.Fatalf("lone checkpoint loaded %d sessions / %d models, want %d / %d",
			len(loaded.Sessions), len(loaded.Models), len(state.Sessions), len(state.Models))
	}
}

// TestParentChainRefused: testdata/parent_chain is a root the commit before
// directory format 3 wrote — one full and one incremental checkpoint, the
// second referencing two of its three sessions and its model from the first
// (see testdata/README.md). gob would decode either manifest without the
// fields this reader no longer declares, so the format number is the only
// thing standing between an old root and a partial fleet: both must be
// refused, and LoadLatest must report that, not fall back to a fleet.
func TestParentChainRefused(t *testing.T) {
	const root = "testdata/parent_chain"
	for _, name := range []string{"ckpt-00000001", "ckpt-00000002"} {
		if state, err := Load(filepath.Join(root, name)); !errors.Is(err, ErrVersion) || state != nil {
			t.Fatalf("%s: Load returned (%v, %v), want ErrVersion and no state", name, state, err)
		}
	}
	if state, dir, err := LoadLatest(root); !errors.Is(err, ErrVersion) || state != nil || dir != "" {
		t.Fatalf("LoadLatest returned (%v, %q, %v), want ErrVersion and no state", state, dir, err)
	}
	if man, err := LatestManifest(root); !errors.Is(err, ErrVersion) || man != nil {
		t.Fatalf("LatestManifest returned (%v, %v), want ErrVersion", man, err)
	}
}

// TestLatestManifestSkipsDamaged: LatestManifest must fall back past a
// checkpoint whose manifest is unreadable, mirroring LoadLatest.
func TestLatestManifestSkipsDamaged(t *testing.T) {
	root := t.TempDir()
	state := testState(t)
	if _, err := Save(root, state); err != nil {
		t.Fatal(err)
	}
	dir2, err := Save(root, state)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir2, manifestFile), 3); err != nil {
		t.Fatal(err)
	}
	man, err := LatestManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	if man.Seq != 1 {
		t.Fatalf("LatestManifest picked seq %d, want fallback to 1", man.Seq)
	}
}

func TestAbandonedTempDirsAreSwept(t *testing.T) {
	root := t.TempDir()
	crashed := filepath.Join(root, tmpPrefix+"crashed")
	if err := os.MkdirAll(crashed, 0o755); err != nil {
		t.Fatal(err)
	}
	// Backdate it past the stale threshold: fresh temp dirs may belong to a
	// concurrent in-flight Save and must survive.
	old := time.Now().Add(-2 * staleTmpAge)
	if err := os.Chtimes(crashed, old, old); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(root, tmpPrefix+"inflight")
	if err := os.MkdirAll(fresh, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Save(root, testState(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(crashed); !os.IsNotExist(err) {
		t.Fatalf("stale temp dir survived pruning (err=%v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp dir should survive pruning: %v", err)
	}
}

func TestNoCheckpoint(t *testing.T) {
	if _, _, err := LoadLatest(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty root returned %v, want ErrNoCheckpoint", err)
	}
	if _, _, err := LoadLatest(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing root returned %v, want ErrNoCheckpoint", err)
	}
}

// flipByte flips one bit of the byte at offset (negative = from the end).
func flipByte(t *testing.T, path string, offset int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if offset < 0 {
		offset += len(raw)
	}
	raw[offset] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// truncateLastRecord removes the final complete record from a framed file,
// leaving everything before it intact.
func truncateLastRecord(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the records to find the start of the last one.
	off := headerLen
	last := off
	for off < len(raw) {
		last = off
		n := int(binary.LittleEndian.Uint32(raw[off+1:]))
		off += 5 + n + 4
	}
	if err := os.Truncate(path, int64(last)); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadManifest fuzzes the manifest's gob payload — framed here with a
// valid CRC, which a mutated file would almost never carry — through
// readManifest and load: no input panics, every refusal is ErrCorrupt or
// ErrVersion, an accepted manifest is the current format and names only plain
// files inside its own directory, and its session count is compared against
// what sessions.bin held, never allocated from.
func FuzzReadManifest(f *testing.F) {
	dir := f.TempDir()
	if err := writeRecordFile(filepath.Join(dir, sessionsFile), KindSessions, func(*fileWriter) error { return nil }); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		path := filepath.Join(dir, manifestFile)
		if err := writeRecordFile(path, KindManifest, func(fw *fileWriter) error {
			return fw.writeRecord(RecManifest, payload)
		}); err != nil {
			t.Fatal(err)
		}
		man, err := readManifest(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("refusal %v wraps neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		if man.Format != dirFormat {
			t.Fatalf("accepted directory format %d", man.Format)
		}
		for _, me := range man.Models {
			if filepath.Dir(filepath.Join(dir, me.File)) != dir || filepath.Join(dir, me.File) == dir {
				t.Fatalf("accepted model file %q outside its directory", me.File)
			}
		}
		// sessions.bin here is empty, so only a manifest promising no
		// sessions (and naming no model file, none exist) may load.
		if state, err := load(dir); err == nil && (man.Sessions != 0 || len(state.Sessions) != 0) {
			t.Fatalf("loaded %d sessions from an empty sessions.bin, manifest promised %d", len(state.Sessions), man.Sessions)
		}
	})
}
