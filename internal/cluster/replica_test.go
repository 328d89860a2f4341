package cluster

import (
	"bytes"
	"encoding/gob"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"cognitivearm/internal/board"
	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/wal"
)

// captureDelta is hub.CaptureDeltaInto a fresh arena, its dirty records
// decoded into SessionRecords that share no memory with the hub.
func captureDelta(t *testing.T, hub *serve.Hub, prev map[uint64]checkpoint.SessionRef) *checkpoint.FleetState {
	t.Helper()
	var d serve.Delta
	hub.CaptureDeltaInto(prev, &d)
	state := &checkpoint.FleetState{Manifest: d.Manifest, Models: d.Models, ModelMACs: d.ModelMACs}
	for i := 0; i < d.Records.Len(); i++ {
		var rec checkpoint.SessionRecord
		if err := checkpoint.DecodeSessionRecord(d.Records.At(i), &rec); err != nil {
			t.Fatal(err)
		}
		state.Sessions = append(state.Sessions, rec)
	}
	return state
}

// replicaFleet is a primary's hub with two ticking sessions.
func replicaFleet(t *testing.T) *serve.Hub {
	t.Helper()
	clf, norm := sharedModel(t)
	hub := newHub(t, registryWith(clf))
	t.Cleanup(hub.Stop)
	for i, tag := range []string{"s-0", "s-1"} {
		src := &scriptSource{samples: scriptedEEG(0, uint64(11+i), 400)}
		if _, err := hub.Admit(serve.SessionConfig{ModelKey: "rf", Source: src, Norm: norm, Tag: tag}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		hub.TickAll()
	}
	return hub
}

// batchOf ships delta as one sealed batch over a fresh in-memory stream and
// returns what a standby's reader hands to the store.
func batchOf(t *testing.T, delta *checkpoint.FleetState) ([]wal.Entry, [wal.HashSize]byte) {
	t.Helper()
	var buf bytes.Buffer
	sw := wal.NewStreamWriter(&buf)
	if err := new(checkpoint.DeltaEncoder).Append(sw, delta); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	sr, err := wal.NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	entries, root, err := sr.ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	return entries, root
}

// TestReplicaRefusedBatchLeavesImage: after one good batch, a batch whose refs
// name a session at a version no record carries is refused at apply time, and
// the promotable image — records, live count, last verified root — is exactly
// the pre-batch image. A primary that dies right after must fail over to
// batch N, never to a mix of N and the refused N+1.
func TestReplicaRefusedBatchLeavesImage(t *testing.T) {
	hub := replicaFleet(t)
	store := newReplicaStore()
	rs := store.beginTail("primary")

	delta1 := captureDelta(t, hub, nil)
	entries, root1 := batchOf(t, delta1)
	if live, err := store.apply("primary", rs, entries, root1); err != nil || live != 2 {
		t.Fatalf("good batch: live=%d err=%v", live, err)
	}
	want := captureDelta(t, hub, nil).Sessions // an independent copy of the applied state

	for i := 0; i < 3; i++ {
		hub.TickAll()
	}
	bad := captureDelta(t, hub, delta1.Manifest.RefIndexInto(nil))
	if len(bad.Sessions) != 2 {
		t.Fatalf("setup: %d dirty sessions, want 2", len(bad.Sessions))
	}
	bad.Sessions = bad.Sessions[:1] // the first session's newer record rides along
	bad.Manifest.Refs[1].Ver += 1000
	entries, root2 := batchOf(t, bad)
	_, err := store.apply("primary", rs, entries, root2)
	if err == nil || !strings.Contains(err.Error(), "out of sync") {
		t.Fatalf("unresolvable batch: %v, want an out-of-sync refusal", err)
	}

	if got := store.total(); got != 2 {
		t.Fatalf("live replica count %d after a refused batch, want 2", got)
	}
	set, ok := store.take("primary")
	if !ok {
		t.Fatal("image gone after a refused batch")
	}
	image, err := set.resolve()
	if err != nil {
		t.Fatalf("image does not resolve after a refused batch: %v", err)
	}
	if !reflect.DeepEqual(image.Sessions, want) {
		t.Fatalf("refused batch left a half-applied image:\n got %+v\nwant %+v", image.Sessions, want)
	}
	if set.lastRoot != root1 {
		t.Fatalf("image claims root %x, last applied batch sealed %x", set.lastRoot, root1)
	}
}

// TestReplicaSupersededTailRefused: once a primary opens a fresh tail, a
// batch still arriving on the previous connection must not write over the
// new image, however plausible its own sequence numbers are.
func TestReplicaSupersededTailRefused(t *testing.T) {
	hub := replicaFleet(t)
	store := newReplicaStore()
	stale := store.beginTail("primary")
	entries, root := batchOf(t, captureDelta(t, hub, nil))
	if _, err := store.apply("primary", stale, entries, root); err != nil {
		t.Fatal(err)
	}
	fresh := store.beginTail("primary")
	if len(fresh.base.Models) != 1 || fresh.live != 0 {
		t.Fatalf("fresh tail starts with %d models / %d sessions, want the shipped model and no sessions",
			len(fresh.base.Models), fresh.live)
	}
	if _, err := store.apply("primary", stale, entries, root); err == nil || !strings.Contains(err.Error(), "superseded") {
		t.Fatalf("batch on the superseded tail: %v, want a refusal", err)
	}
	if _, err := store.apply("primary", fresh, entries, root); err != nil {
		t.Fatalf("batch on the fresh tail: %v", err)
	}
}

// TestMigrationRefusesUnknownModel: a migration payload holding a session
// whose ModelKey no model of the payload resolves is refused whole — nothing
// restored, Handled 0 — exactly as a checkpoint whose session references a
// missing model is: the receiver reads it with the checkpoint reader.
func TestMigrationRefusesUnknownModel(t *testing.T) {
	state := captureDelta(t, replicaFleet(t), nil)
	state.Sessions[1].ModelKey = "ghost"
	delta := &checkpoint.Delta{Manifest: state.Manifest, Models: state.Models, ModelMACs: state.ModelMACs}
	for i := range state.Sessions {
		delta.Records.Append(&state.Sessions[i])
	}

	clf, _ := sharedModel(t)
	hubB := newHub(t, registryWith(clf))
	defer hubB.Stop()
	nodeB, err := NewNode(Config{ID: "node-b", Logf: t.Logf,
		Rebind: func(serve.RestoredSession) (serve.Source, error) { return &scriptSource{}, nil },
	}, hubB)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	conn, err := net.DialTimeout("tcp", nodeB.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte{verbMigrate}); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteFleet(conn, delta); err != nil {
		t.Fatal(err)
	}
	ack, _, err := readAck(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ack.Err, `unknown model "ghost"`) || ack.Handled != 0 {
		t.Fatalf("ack = %+v, want an unknown-model refusal with nothing handled", ack)
	}
	if n := hubB.Sessions(); n != 0 {
		t.Fatalf("receiver restored %d sessions from a refused batch, want 0", n)
	}
}

// TestFleetFileIsMigrationPayload: the bytes sendMigration puts on the wire,
// saved as a checkpoint's fleet file, load through checkpoint.Load into
// exactly the records a checkpoint of the same sessions loads to — one
// writer, one reader, one format.
func TestFleetFileIsMigrationPayload(t *testing.T) {
	hub := replicaFleet(t)
	node, err := NewNode(Config{ID: "sender", Rebind: dropRebind}, hub)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	var recs []checkpoint.SessionRecord
	for id := range hub.SessionKeys() {
		rec, ok := hub.ExtractSession(id)
		if !ok {
			t.Fatalf("extract %d failed", id)
		}
		recs = append(recs, *rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	delta, err := node.migrationDelta(recs)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	wire := make(chan []byte, 1)
	go func() { // the receiving end of the exchange, keeping what arrived
		var got bytes.Buffer
		defer func() { wire <- got.Bytes() }()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var verb [1]byte
		if _, err := io.ReadFull(conn, verb[:]); err != nil {
			return
		}
		state, err := checkpoint.ReadFleet(io.TeeReader(conn, &got))
		if err != nil {
			writeAck(conn, ackMsg{Err: err.Error()})
			return
		}
		writeAck(conn, ackMsg{Handled: len(state.Sessions)})
	}()
	if handled, err := node.sendMigration(ln.Addr().String(), delta); err != nil || handled != len(recs) {
		t.Fatalf("sendMigration: %d of %d handled, err %v", handled, len(recs), err)
	}
	dir := filepath.Join(t.TempDir(), "ckpt-00000001")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fleet"), <-wire, 0o644); err != nil {
		t.Fatal(err)
	}
	fromWire, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatalf("the migration payload does not load as a checkpoint: %v", err)
	}
	saved, err := checkpoint.Save(t.TempDir(), &checkpoint.FleetState{
		Manifest: delta.Manifest, Models: delta.Models, ModelMACs: delta.ModelMACs, Sessions: recs,
	})
	if err != nil {
		t.Fatal(err)
	}
	fromCkpt, err := checkpoint.Load(saved)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromWire.Sessions, fromCkpt.Sessions) || !reflect.DeepEqual(fromWire.Sessions, recs) {
		t.Fatalf("migration payload and checkpoint load different records:\n wire %+v\n ckpt %+v", fromWire.Sessions, fromCkpt.Sessions)
	}
	if !reflect.DeepEqual(fromWire.Manifest.Refs, fromCkpt.Manifest.Refs) || len(fromWire.Models) != 1 || len(fromCkpt.Models) != 1 {
		t.Fatalf("views %+v / %+v with %d / %d models, want equal views and the one model",
			fromWire.Manifest.Refs, fromCkpt.Manifest.Refs, len(fromWire.Models), len(fromCkpt.Models))
	}
}

// TestReplicaApplyAllocs gates the standby's ack path: once a tail's image
// holds the fleet, applying a steady-state batch — a newer record for every
// session and the refs entry, the model long shipped — allocates no more than
// decoding that refs entry's gob manifest alone. Records are verified in place
// and copied into buffers the image reuses; nothing is decoded.
func TestReplicaApplyAllocs(t *testing.T) {
	hub := replicaFleet(t)
	store := newReplicaStore()
	rs := store.beginTail("primary")
	entries, root := batchOf(t, captureDelta(t, hub, nil))
	if _, err := store.apply("primary", rs, entries, root); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		hub.TickAll()
	}
	entries, root = batchOf(t, captureDelta(t, hub, nil))
	var steady []wal.Entry
	for _, e := range entries {
		if e.Kind != wal.KindModel {
			steady = append(steady, e)
		}
	}
	refs := steady[len(steady)-1]
	if refs.Kind != wal.KindRefs || len(steady) != 3 {
		t.Fatalf("steady batch is %d entries ending in kind %d, want two records and the refs", len(steady), refs.Kind)
	}
	apply := func() {
		if live, err := store.apply("primary", rs, steady, root); err != nil || live != 2 {
			t.Fatalf("steady batch: live=%d err=%v", live, err)
		}
	}
	apply()
	gobAllocs := testing.AllocsPerRun(20, func() {
		var man checkpoint.Manifest
		if err := gob.NewDecoder(bytes.NewReader(refs.Data)).Decode(&man); err != nil {
			t.Fatal(err)
		}
	})
	if allocs := testing.AllocsPerRun(20, apply); allocs > gobAllocs {
		t.Fatalf("applying a steady batch allocates %.0f times, above the %.0f of its refs gob", allocs, gobAllocs)
	}
}

// BenchmarkReplicateAt times one replication sweep of a 100-session primary
// to one standby over loopback TCP after the 30 ticks (cogarmd's 2 s cadence)
// that dirty every session; allocs/op counts both nodes, which share the
// process: the primary's capture and send, the standby's apply.
func BenchmarkReplicateAt(b *testing.B) {
	clf, norm := sharedModel(b)
	cfg := serve.Config{Shards: 2, MaxSessionsPerShard: 50, TickHz: 15, LatencyWindow: 32}
	hub, err := serve.NewHub(cfg, registryWith(clf))
	if err != nil {
		b.Fatal(err)
	}
	defer hub.Stop()
	standbyHub, err := serve.NewHub(cfg, serve.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	defer standbyHub.Stop()
	primary, err := NewNode(Config{ID: "primary", Replicas: 1, Rebind: dropRebind}, hub)
	if err != nil {
		b.Fatal(err)
	}
	defer primary.Close()
	standby, err := NewNode(Config{ID: "standby", Replicas: 1, Rebind: dropRebind}, standbyHub)
	if err != nil {
		b.Fatal(err)
	}
	defer standby.Close()
	if err := standby.Join(primary.Addr()); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		src := board.NewSyntheticCyton(eeg.NewSubject(0), uint64(i)*7+3, false)
		if err := src.Start(); err != nil {
			b.Fatal(err)
		}
		if _, err := hub.Admit(serve.SessionConfig{ModelKey: "rf", Source: src, Norm: norm}); err != nil {
			b.Fatal(err)
		}
	}
	sweep := func() {
		for i := 0; i < 30; i++ {
			hub.TickAll()
		}
		b.StartTimer()
		if err := primary.ReplicateAt(time.Now()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
	b.StopTimer()
	sweep() // the full base
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		sweep()
		b.StartTimer()
	}
}
