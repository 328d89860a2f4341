package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cognitivearm/internal/control"
	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/rf"
	"cognitivearm/internal/tensor"
	"cognitivearm/internal/wal"
)

// testState builds a small but fully populated fleet state: one random-weight
// CNN (untrained weights serialise the same as trained ones), one tiny
// forest, and two sessions with mid-stream signal state.
func testState(t testing.TB) *FleetState {
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
	// A state that came out of a WAL fold carries a refs view; the writer
	// derives the fleet file's view from the records instead.
	state.Manifest.Refs = []SessionRef{{ID: 3, Ver: 1}, {ID: 7}}
	dir, err := Save(root, state)
	if err != nil {
		t.Fatal(err)
	}
	if des, err := os.ReadDir(dir); err != nil || len(des) != 1 || des[0].Name() != fleetFile {
		t.Fatalf("checkpoint directory holds %v (err %v), want the fleet file alone", des, err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Manifest.Seq != 1 {
		t.Fatalf("seq = %d, want 1", loaded.Manifest.Seq)
	}
	wantRefs := []SessionRef{{ID: 3, SampleAcc: 0.333, IdleTicks: 1}, {ID: 7}}
	if m := loaded.Manifest; !reflect.DeepEqual(m.Refs, wantRefs) || m.Sessions != len(state.Sessions) {
		t.Fatalf("manifest refs %+v, %d sessions; want %+v, %d", m.Refs, m.Sessions, wantRefs, len(state.Sessions))
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
	flipByte(t, filepath.Join(second, fleetFile), -10)

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

// TestCorruptFilesAreRejected: a flipped byte in any frame of the fleet file
// — the view, its seal, a model, a record, the body's seal — is ErrCorrupt.
func TestCorruptFilesAreRejected(t *testing.T) {
	dir, err := Save(t.TempDir(), testState(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fleetFile)
	good := readFile(t, path)
	offs := frameOffsets(good)
	if len(offs) != 7 { // refs, seal; two models, two records, seal
		t.Fatalf("fleet file has %d frames, want 7", len(offs))
	}
	for i, off := range offs {
		flipByte(t, path, off+6)
		if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("frame %d: corrupted load returned %v, want ErrCorrupt", i, err)
		}
		writeFile(t, path, good)
	}
}

// TestTruncatedFilesAreRejected: a fleet file cut anywhere — inside a frame,
// at a frame boundary inside a batch, or cleanly after the view with the body
// missing — is ErrCorrupt, and so is one with a byte past the body's seal.
func TestTruncatedFilesAreRejected(t *testing.T) {
	dir, err := Save(t.TempDir(), testState(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fleetFile)
	good := readFile(t, path)
	offs := frameOffsets(good)
	for _, cut := range []int{len(good) - 7, offs[6], offs[5], offs[2], offs[1], 3} {
		writeFile(t, path, good[:cut])
		if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d of %d: %v, want ErrCorrupt", cut, len(good), err)
		}
	}
	writeFile(t, path, append(good, 0))
	if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: %v, want ErrCorrupt", err)
	}
}

// TestVersionMismatchIsRejected: a fleet file of another stream version, and
// a checkpoint directory with no fleet file at all (what every earlier
// release wrote), are ErrVersion.
func TestVersionMismatchIsRejected(t *testing.T) {
	dir, err := Save(t.TempDir(), testState(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fleetFile)
	raw := readFile(t, path)
	binary.LittleEndian.PutUint16(raw[4:], binary.LittleEndian.Uint16(raw[4:])+1)
	writeFile(t, path, raw)
	if _, err := Load(dir); !errors.Is(err, ErrVersion) {
		t.Fatalf("future-version load returned %v, want ErrVersion", err)
	}
	if err := os.Rename(path, filepath.Join(dir, "sessions")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrVersion) {
		t.Fatalf("directory without a fleet file returned %v, want ErrVersion", err)
	}
}

// TestReadFleetRefusals: payloads whose frames and seals are all sound but
// whose batches do not hold a fleet are refused whole, each for its reason.
func TestReadFleetRefusals(t *testing.T) {
	d := testState(t).encode()
	for i := 0; i < d.Records.Len(); i++ {
		ref, _ := PeekSessionRecord(d.Records.At(i))
		d.Manifest.Refs = append(d.Manifest.Refs, ref)
	}
	short := *d
	short.Manifest.Refs = d.Manifest.Refs[:1]
	for _, tc := range []struct {
		name  string
		write func(*streamBuilder)
		want  string // "" for a payload that must load
	}{
		{"sound", func(b *streamBuilder) { b.refs(d).seal().body(d).seal() }, ""},
		{"view of two entries", func(b *streamBuilder) { b.refs(d).refs(d).seal().body(d).seal() }, "view batch of 2 entries"},
		{"one-batch delta", func(b *streamBuilder) { b.body(d).refs(d).seal() }, "view batch of 5 entries"},
		{"refs entry in the body", func(b *streamBuilder) { b.refs(d).seal().body(d).refs(d).seal() }, "kind-2 entry in the body"},
		{"record the view does not name", func(b *streamBuilder) { b.refs(&short).seal().body(d).seal() }, "body holds 2 records, view names 1"},
		{"model not shipped", func(b *streamBuilder) { b.refs(d).seal().body(&Delta{Records: d.Records}).seal() }, "unknown model"},
	} {
		b := &streamBuilder{t: t}
		b.sw = wal.NewStreamWriter(&b.buf)
		tc.write(b)
		_, err := readFleetFile(&b.buf, b.buf.Len())
		if tc.want == "" && err != nil || tc.want != "" && (!errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: %v, want ErrCorrupt containing %q", tc.name, err, tc.want)
		}
	}
}

// streamBuilder hand-assembles fleet payloads, including ones the writer
// would never produce.
type streamBuilder struct {
	t   *testing.T
	buf bytes.Buffer
	sw  *wal.StreamWriter
}

func (b *streamBuilder) check(err error) *streamBuilder {
	b.t.Helper()
	if err != nil {
		b.t.Fatal(err)
	}
	return b
}

func (b *streamBuilder) refs(d *Delta) *streamBuilder {
	return b.check(new(DeltaEncoder).AppendRefs(b.sw, d))
}

func (b *streamBuilder) body(d *Delta) *streamBuilder {
	b.check(new(DeltaEncoder).AppendModels(b.sw, d))
	return b.check(appendRecords(b.sw, &d.Records))
}

func (b *streamBuilder) seal() *streamBuilder {
	_, err := b.sw.Seal()
	return b.check(err)
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
	if _, dir, err := LoadLatest(root); err != nil || dir != last || filepath.Base(dir) != "ckpt-00000007" {
		t.Fatalf("latest = %q (%v), want ckpt-00000007", dir, err)
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
// — and testdata/parent_dir3 one the last release before the fleet file
// wrote (see testdata/README.md). Neither holds a fleet file: every
// directory must be refused with ErrVersion, and LoadLatest and
// LatestManifest must report that, not fall back to a fleet.
func TestParentChainRefused(t *testing.T) {
	for root, dirs := range map[string][]string{
		"testdata/parent_chain": {"ckpt-00000001", "ckpt-00000002"},
		"testdata/parent_dir3":  {"ckpt-00000001"},
	} {
		for _, name := range dirs {
			if state, err := Load(filepath.Join(root, name)); !errors.Is(err, ErrVersion) || state != nil {
				t.Fatalf("%s/%s: Load returned (%v, %v), want ErrVersion and no state", root, name, state, err)
			}
		}
		if state, dir, err := LoadLatest(root); !errors.Is(err, ErrVersion) || state != nil || dir != "" {
			t.Fatalf("%s: LoadLatest returned (%v, %q, %v), want ErrVersion and no state", root, state, dir, err)
		}
		if man, err := LatestManifest(root); !errors.Is(err, ErrVersion) || man != nil {
			t.Fatalf("%s: LatestManifest returned (%v, %v), want ErrVersion", root, man, err)
		}
	}
}

// TestLatestManifestSkipsDamaged: LatestManifest must fall back past a
// checkpoint whose view is unreadable, mirroring LoadLatest — and it reads
// the view alone, so a body cut off behind the view's seal does not touch it.
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
	path := filepath.Join(dir2, fleetFile)
	raw := readFile(t, path)
	writeFile(t, path, raw[:frameOffsets(raw)[2]])
	if man, err := LatestManifest(root); err != nil || man.Seq != 2 || len(man.Refs) != 2 {
		t.Fatalf("view of a checkpoint cut behind its view: %+v, %v; want seq 2 naming 2 sessions", man, err)
	}
	if err := os.Truncate(path, 3); err != nil {
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

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func writeFile(t *testing.T, path string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// flipByte flips one bit of the byte at offset (negative = from the end).
func flipByte(t *testing.T, path string, offset int) {
	t.Helper()
	raw := readFile(t, path)
	if offset < 0 {
		offset += len(raw)
	}
	raw[offset] ^= 0x40
	writeFile(t, path, raw)
}

// frameOffsets returns the offset of every frame of a well-formed stream —
// type u8 | length u32le | payload | crc u32le, behind an 8-byte header.
func frameOffsets(raw []byte) []int {
	var offs []int
	for off := 8; off+5 <= len(raw); off += 5 + int(binary.LittleEndian.Uint32(raw[off+1:])) + 4 {
		offs = append(offs, off)
	}
	return offs
}

// FuzzReadFleet fuzzes the one checkpoint and migration reader over whole
// files (testdata/fuzz/FuzzReadFleet; see testdata/README.md): no input
// panics it or makes it allocate far past the bytes that arrived, every
// refusal is ErrCorrupt or ErrVersion, and a fleet it accepts round-trips
// through the writer — written out, it reads back and writes out to the very
// same bytes.
func FuzzReadFleet(f *testing.F) {
	// gob builds its per-type codecs on a process's first decode of each
	// type; read one fleet of every model family first, so the bound below
	// measures what an input costs and not that one-off.
	warm := fleetBytes(f, testState(f))
	if _, err := readFleetFile(bytes.NewReader(warm), len(warm)); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		state, err := readFleetFile(bytes.NewReader(b), len(b))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(b))+256<<10 {
			t.Fatalf("reader allocated %d bytes for a %d-byte input", grew, len(b))
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("refusal %v wraps neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		once := fleetBytes(t, state)
		again, err := readFleetFile(bytes.NewReader(once), len(once))
		if err != nil {
			t.Fatalf("the writer's own output is refused: %v", err)
		}
		if twice := fleetBytes(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("an accepted fleet does not round-trip: %d bytes, then %d", len(once), len(twice))
		}
	})
}

func fleetBytes(t testing.TB, state *FleetState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFleet(&buf, state.encode()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
