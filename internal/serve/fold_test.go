package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/models"
	"cognitivearm/internal/wal"
)

// captureDelta is h.CaptureDeltaInto a fresh arena, decoded: its dirty
// records as SessionRecords that share no memory with the hub.
func captureDelta(h *Hub, prev map[uint64]checkpoint.SessionRef) *checkpoint.FleetState {
	var d Delta
	h.CaptureDeltaInto(prev, &d)
	return d.decode()
}

// foldFleet is a two-session hub, six ticks in, whose deltas feed the fold
// tests. Both streams run dry three ticks later (the script's 60 samples at
// the rate schedule, the ring's 150 at up to twice it), after which the
// sessions are clean: only their idle clocks move.
func foldFleet(t *testing.T) *Hub {
	t.Helper()
	reg, _ := testFleet(t)
	hub, err := NewHub(Config{Shards: 2, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 32}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Stop)
	journalFleet(t, hub, scriptedEEG(0, 41, 60), scriptedEEG(0, 97, 150))
	for i := 0; i < 6; i++ {
		hub.TickAll()
	}
	return hub
}

// deltaWire is one in-memory connection: an encoder and stream writer on
// one end of buf, a stream reader on the other.
type deltaWire struct {
	buf bytes.Buffer
	enc checkpoint.DeltaEncoder
	sw  *wal.StreamWriter
	sr  *wal.StreamReader
}

// ship sends delta as one sealed batch and returns the entries the reader
// gets back.
func (w *deltaWire) ship(t *testing.T, delta *checkpoint.FleetState) []wal.Entry {
	t.Helper()
	if w.sw == nil {
		w.sw = wal.NewStreamWriter(&w.buf)
	}
	if err := w.enc.Append(w.sw, delta); err != nil {
		t.Fatal(err)
	}
	sent, err := w.sw.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if w.sr == nil {
		if w.sr, err = wal.NewStreamReader(&w.buf); err != nil {
			t.Fatal(err)
		}
	}
	entries, root, err := w.sr.ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if root != sent {
		t.Fatalf("receiver verified root %x, sender sealed %x", root, sent)
	}
	return entries
}

func foldOver(t *testing.T, entries []wal.Entry, base *checkpoint.FleetState) (*checkpoint.FleetState, error) {
	t.Helper()
	fold := checkpoint.NewFold()
	for _, e := range entries {
		if err := fold.Add(e); err != nil {
			return nil, err
		}
	}
	return fold.Resolve(base)
}

func countKind(entries []wal.Entry, kind wal.Kind) (n int) {
	for _, e := range entries {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestDeltaStreamRoundTrip: two deltas of a live hub cross a socket stream
// and fold, batch by batch, into exactly the records a full capture of the
// hub holds at that moment — the model shipped once and only referenced
// after, clean sessions carried over from the previous image with the new
// volatile overlay, and a departed session pruned by the refs view.
func TestDeltaStreamRoundTrip(t *testing.T) {
	hub := foldFleet(t)
	var wire deltaWire

	delta1 := captureDelta(hub, nil)
	entries := wire.ship(t, delta1)
	if m, s := countKind(entries, wal.KindModel), countKind(entries, wal.KindSession); m != 1 || s != 2 {
		t.Fatalf("first batch carries %d models / %d sessions, want 1 / 2", m, s)
	}
	image, err := foldOver(t, entries, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(image.Sessions, delta1.Sessions) {
		t.Fatalf("session records mangled through the stream:\n got %+v\nwant %+v", image.Sessions, delta1.Sessions)
	}
	if image.Manifest.Hub != delta1.Manifest.Hub || len(image.Models) != 1 {
		t.Fatalf("image hub %+v with %d models, want %+v with 1", image.Manifest.Hub, len(image.Models), delta1.Manifest.Hub)
	}

	// Second interval: both sessions tick on, then one is evicted — its ref
	// disappears while the other's record is re-sent.
	for i := 0; i < 3; i++ {
		hub.TickAll()
	}
	if _, ok := hub.ExtractSession(SessionID(delta1.Sessions[0].ID)); !ok {
		t.Fatal("extract failed")
	}
	delta2 := captureDelta(hub, delta1.Manifest.RefIndexInto(nil))
	entries = wire.ship(t, delta2)
	if m, s := countKind(entries, wal.KindModel), countKind(entries, wal.KindSession); m != 0 || s != 1 {
		t.Fatalf("second batch carries %d models / %d sessions, want 0 / 1 (model shipped once)", m, s)
	}
	if entries[0].Seq != 5 { // behind the first batch's model, two sessions and refs
		t.Fatalf("second batch opens at seq %d, want contiguous with the first", entries[0].Seq)
	}
	if _, err = foldOver(t, entries, image); err != nil {
		t.Fatal(err)
	}
	if want := captureDelta(hub, nil).Sessions; !reflect.DeepEqual(image.Sessions, want) {
		t.Fatalf("folded image diverged from a full capture:\n got %+v\nwant %+v", image.Sessions, want)
	}

	// Third interval: the stream has run dry, so the batch is refs alone —
	// the clean record comes from the image, the idle clock from the refs.
	hub.TickAll()
	delta3 := captureDelta(hub, delta2.Manifest.RefIndexInto(nil))
	entries = wire.ship(t, delta3)
	if len(entries) != 1 || entries[0].Kind != wal.KindRefs {
		t.Fatalf("idle interval shipped %d entries, want the refs entry alone", len(entries))
	}
	if _, err = foldOver(t, entries, image); err != nil {
		t.Fatal(err)
	}
	if want := captureDelta(hub, nil).Sessions; !reflect.DeepEqual(image.Sessions, want) {
		t.Fatalf("overlay-only batch diverged from a full capture:\n got %+v\nwant %+v", image.Sessions, want)
	}
}

// TestFoldRefusalLeavesBaseUntouched: a flush whose refs name a session at a
// version no record carries — or a session nothing holds at all — is refused
// at Resolve, and the base it was offered is bit for bit what it was: a
// batch enters an image at its refs commit or not at all.
func TestFoldRefusalLeavesBaseUntouched(t *testing.T) {
	hub := foldFleet(t)
	delta1 := captureDelta(hub, nil)
	var enc checkpoint.DeltaEncoder
	log := &entryLog{}
	if err := enc.Append(log, delta1); err != nil {
		t.Fatal(err)
	}
	image, err := foldOver(t, log.entries, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := captureDelta(hub, nil) // an independent deep copy of the same state
	if !reflect.DeepEqual(image.Sessions, before.Sessions) {
		t.Fatal("setup: image does not match the capture")
	}

	for i := 0; i < 3; i++ {
		hub.TickAll()
	}
	for name, mangle := range map[string]func(d *checkpoint.FleetState){
		"version no record carries": func(d *checkpoint.FleetState) {
			d.Sessions = d.Sessions[:1] // session 0's new record rides along
			d.Manifest.Refs[1].Ver += 1000
		},
		"session nothing holds": func(d *checkpoint.FleetState) {
			d.Sessions = d.Sessions[:1]
			d.Manifest.Refs = append(d.Manifest.Refs, checkpoint.SessionRef{ID: 999, Ver: 1})
		},
	} {
		bad := captureDelta(hub, delta1.Manifest.RefIndexInto(nil))
		if len(bad.Sessions) != 2 {
			t.Fatalf("setup: %d dirty sessions, want 2", len(bad.Sessions))
		}
		mangle(bad)
		log := &entryLog{}
		if err := enc.Append(log, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := foldOver(t, log.entries, image); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("%s: fold returned %v, want ErrCorrupt", name, err)
		}
		if !reflect.DeepEqual(image.Sessions, before.Sessions) || !reflect.DeepEqual(image.Manifest.Refs, before.Manifest.Refs) {
			t.Fatalf("%s: refused fold left a half-applied image:\n got %+v\nwant %+v", name, image.Sessions, before.Sessions)
		}
	}
}

// TestFoldApplyKeepsVerifiedBytes: a long-lived fold fed batch by batch with
// Apply resolves, after every batch, to exactly the records a full capture
// of the hub holds, keeping records only for the sessions the newest view
// names, in buffers of its own (the batches' entries are overwritten by the
// next ship). A batch it refuses — a record the decoder would reject behind a
// valid fixed block, or a view naming a version no record carries — leaves it
// resolving exactly as before.
func TestFoldApplyKeepsVerifiedBytes(t *testing.T) {
	hub := foldFleet(t)
	var wire deltaWire
	fold := checkpoint.NewFold()
	base := &checkpoint.FleetState{Models: map[string]models.Classifier{}, ModelMACs: map[string]int64{}}
	resolve := func() []checkpoint.SessionRecord {
		t.Helper()
		image, err := fold.Resolve(base)
		if err != nil {
			t.Fatal(err)
		}
		return image.Sessions
	}
	applyGood := func(stage string, delta *checkpoint.FleetState) {
		t.Helper()
		live, err := fold.Apply(wire.ship(t, delta), base)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		want := captureDelta(hub, nil).Sessions
		if got := resolve(); live != len(want) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d live, image diverged from a full capture:\n got %+v\nwant %+v", stage, live, got, want)
		}
		if fold.Len() != len(want) {
			t.Fatalf("%s: fold keeps %d records for %d live sessions", stage, fold.Len(), len(want))
		}
	}

	delta1 := captureDelta(hub, nil)
	applyGood("full base", delta1)
	if len(base.Models) != 1 {
		t.Fatalf("base holds %d models after the full base, want 1", len(base.Models))
	}
	before := resolve()

	hub.TickAll()
	entries := wire.ship(t, captureDelta(hub, delta1.Manifest.RefIndexInto(nil)))
	for i, e := range entries {
		if e.Kind == wal.KindSession {
			entries[i].Data = append(append([]byte(nil), e.Data...), 0) // one trailing byte
			break
		}
	}
	if _, err := fold.Apply(entries, base); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("record with a trailing byte: %v, want ErrCorrupt", err)
	}
	bad := captureDelta(hub, delta1.Manifest.RefIndexInto(nil))
	bad.Manifest.Refs[1].Ver += 1000
	if _, err := fold.Apply(wire.ship(t, bad), base); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("view naming a version no record carries: %v, want ErrCorrupt", err)
	}
	if got := resolve(); !reflect.DeepEqual(got, before) {
		t.Fatalf("refused batches moved the image:\n got %+v\nwant %+v", got, before)
	}

	hub.TickAll()
	if _, ok := hub.ExtractSession(SessionID(delta1.Sessions[0].ID)); !ok {
		t.Fatal("extract failed")
	}
	delta2 := captureDelta(hub, delta1.Manifest.RefIndexInto(nil))
	applyGood("departure", delta2)
	for i := 0; i < 3; i++ {
		hub.TickAll()
	}
	applyGood("idle overlay", captureDelta(hub, delta2.Manifest.RefIndexInto(nil)))
}

// entryLog is an EntrySink that keeps what it is given.
type entryLog struct{ entries []wal.Entry }

func (l *entryLog) Append(kind wal.Kind, data []byte) (uint64, error) {
	seq := uint64(len(l.entries) + 1)
	l.entries = append(l.entries, wal.Entry{Seq: seq, Kind: kind, Data: append([]byte(nil), data...), Sealed: true})
	return seq, nil
}

// TestFoldRejectsImpossibleHub pins manifest validation where it matters: a
// fold from nothing takes its hub configuration from the refs manifest, and
// one describing an impossible hub is refused rather than rebuilt.
func TestFoldRejectsImpossibleHub(t *testing.T) {
	delta := captureDelta(foldFleet(t), nil)
	delta.Manifest.Hub.Shards = 0
	log := &entryLog{}
	if err := new(checkpoint.DeltaEncoder).Append(log, delta); err != nil {
		t.Fatal(err)
	}
	if _, err := foldOver(t, log.entries, nil); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// TestReplayRefusesStreamInWalDir: socket-stream bytes saved as a segment
// file are corruption to replay, not a second on-disk variant.
func TestReplayRefusesStreamInWalDir(t *testing.T) {
	var buf bytes.Buffer
	sw := wal.NewStreamWriter(&buf)
	if err := new(checkpoint.DeltaEncoder).Append(sw, captureDelta(foldFleet(t), nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReplayWAL(dir, nil); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("replay over a stream header: %v, want wal.ErrCorrupt", err)
	}
}
