package serve

import (
	"errors"
	"reflect"
	"testing"
)

// TestBackpressureRefusesOverloadedShards: a fleet whose shards still have
// static capacity must refuse admissions once measured tick latency crowds
// the tick budget — and the refusal must be visible in the snapshot.
func TestBackpressureRefusesOverloadedShards(t *testing.T) {
	reg, p := testFleet(t)
	// An absurd tick rate gives a sub-microsecond budget, so any real tick's
	// latency overruns it: the backpressure signal with no sleeping.
	hub, err := NewHub(Config{Shards: 2, MaxSessionsPerShard: 8, TickHz: 1e7, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	first, err := hub.Admit(boardSession(t, p, 0, 1))
	if err != nil {
		t.Fatalf("admission into an idle fleet refused: %v", err)
	}
	for i := 0; i < 8; i++ {
		hub.TickAll()
	}
	_, err = hub.Admit(boardSession(t, p, 0, 2))
	if !errors.Is(err, ErrFleetOverloaded) {
		t.Fatalf("overloaded fleet admitted a session (err=%v)", err)
	}
	snap := hub.Snapshot()
	if snap.RefusedOverload != 1 || snap.RefusedFull != 0 {
		t.Fatalf("refusals not surfaced: %+v", snap)
	}
	// Failover promotion is the one caller without backpressure: on the same
	// overloaded hub, emptied, Admit still refuses but a promotion lands.
	rec, ok := hub.ExtractSession(first)
	if !ok {
		t.Fatal("extract failed")
	}
	if _, err := hub.Admit(boardSession(t, p, 0, 3)); !errors.Is(err, ErrFleetOverloaded) {
		t.Fatalf("overloaded fleet admitted a session (err=%v)", err)
	}
	if _, err := hub.PromoteSession(rec, &scriptSource{}); err != nil {
		t.Fatalf("promotion refused on an overloaded fleet: %v", err)
	}
}

// TestFleetFullRefusalCounted: static-cap refusals keep returning
// ErrFleetFull and are counted separately from backpressure refusals.
func TestFleetFullRefusalCounted(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 1, TickHz: 15, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	if _, err := hub.Admit(boardSession(t, p, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Admit(boardSession(t, p, 0, 2)); !errors.Is(err, ErrFleetFull) {
		t.Fatalf("full fleet returned %v, want ErrFleetFull", err)
	}
	if snap := hub.Snapshot(); snap.RefusedFull != 1 || snap.RefusedOverload != 0 {
		t.Fatalf("refusals not surfaced: RefusedFull=%d RefusedOverload=%d", snap.RefusedFull, snap.RefusedOverload)
	}
}

// TestExtractRestoreSessionBitwise is the single-session migration
// primitive's contract: ExtractSession on one hub + RestoreSession on
// another resumes mid-window state so exactly that the continued decode
// stream matches an uninterrupted reference tick for tick — for a forest
// session, and for a CNN session, whose conv stream the new hub rebuilds.
func TestExtractRestoreSessionBitwise(t *testing.T) {
	reg, p := testFleet(t)
	addCNN(t, reg, p)
	for _, model := range []string{"rf", "cnn"} {
		t.Run(model, func(t *testing.T) { extractRestoreBitwise(t, reg, p, model) })
	}
}

func extractRestoreBitwise(t *testing.T, reg *Registry, p *fleetData, model string) {
	const totalSamples, totalTicks, moveTick = 700, 70, 23
	streamA := scriptedEEG(0, 41, totalSamples)
	cfg := Config{Shards: 2, MaxSessionsPerShard: 4, TickHz: 15, LatencyWindow: 32}

	ref, err := NewHub(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()
	refID, err := ref.Admit(SessionConfig{ModelKey: model, Source: &scriptSource{samples: streamA}, Norm: p.NormFor(0), Tag: "mover"})
	if err != nil {
		t.Fatal(err)
	}
	var want []SessionStats
	for i := 0; i < totalTicks; i++ {
		want = append(want, tickStats(t, ref, []SessionID{refID})...)
	}

	src := &scriptSource{samples: streamA}
	hubA, err := NewHub(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hubA.Stop()
	id, err := hubA.Admit(SessionConfig{ModelKey: model, Source: src, Norm: p.NormFor(0), Tag: "mover"})
	if err != nil {
		t.Fatal(err)
	}
	var got []SessionStats
	for i := 0; i < moveTick; i++ {
		got = append(got, tickStats(t, hubA, []SessionID{id})...)
	}

	rec, ok := hubA.ExtractSession(id)
	if !ok {
		t.Fatal("extract failed")
	}
	if hubA.Sessions() != 0 {
		t.Fatal("extracted session still on source hub")
	}
	if _, ok := hubA.ExtractSession(id); ok {
		t.Fatal("double extract succeeded")
	}

	hubB, err := NewHub(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hubB.Stop()
	newID, err := hubB.RestoreSession(rec, &scriptSource{samples: streamA[src.pos:]})
	if err != nil {
		t.Fatal(err)
	}
	for i := moveTick; i < totalTicks; i++ {
		got = append(got, tickStats(t, hubB, []SessionID{newID})...)
	}

	if len(got) != len(want) {
		t.Fatalf("recorded %d stats, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		g.ID, w.ID = 0, 0 // node-local identity differs by design
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("tick %d diverged after extract/restore:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestRestoreSessionRequiresModel: migrating into a hub that cannot resolve
// the session's model must fail cleanly, not panic a shard later.
func TestRestoreSessionRequiresModel(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	id, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: &scriptSource{}, Norm: p.NormFor(0)})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := hub.ExtractSession(id)
	if !ok {
		t.Fatal("extract failed")
	}
	empty, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 16}, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Stop()
	if _, err := empty.RestoreSession(rec, &scriptSource{}); err == nil {
		t.Fatal("restore without the model succeeded")
	}
}
