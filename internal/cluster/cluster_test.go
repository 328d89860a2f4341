package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cognitivearm/internal/board"
	"cognitivearm/internal/core"
	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/stream"
)

// sharedModel trains the fleet decoder exactly once for the whole test
// binary and hands every test the same classifier + normalisation constants,
// mirroring how a real fleet trains once and shares weights across nodes.
var sharedModelOnce struct {
	sync.Once
	clf  models.Classifier
	norm dataset.Stats
	err  error
}

func sharedModel(t testing.TB) (models.Classifier, dataset.Stats) {
	t.Helper()
	o := &sharedModelOnce
	o.Do(func() {
		cfg := core.DefaultConfig()
		cfg.SubjectIDs = []int{0}
		cfg.SessionSeconds = 24
		p, err := core.New(cfg)
		if err != nil {
			o.err = err
			return
		}
		spec := models.Spec{Family: models.FamilyRF, WindowSize: cfg.WindowSize, Trees: 20, MaxDepth: 10}
		clf, _, err := p.TrainModel(spec)
		if err != nil {
			o.err = err
			return
		}
		o.clf, o.norm = clf, p.NormFor(0)
	})
	if o.err != nil {
		t.Fatal(o.err)
	}
	return o.clf, o.norm
}

// registryWith returns a registry holding the shared classifier under "rf".
func registryWith(clf models.Classifier) *serve.Registry {
	reg := serve.NewRegistry()
	reg.GetOrBuild("rf", func() (models.Classifier, int64, error) { return clf, 0, nil })
	return reg
}

func newHub(t testing.TB, reg *serve.Registry) *serve.Hub {
	t.Helper()
	hub, err := serve.NewHub(serve.Config{Shards: 2, MaxSessionsPerShard: 8, TickHz: 15, LatencyWindow: 32}, reg)
	if err != nil {
		t.Fatal(err)
	}
	return hub
}

// scriptSource replays a fixed pre-generated stream — the deterministic
// stand-in for a live subject that lets a migrated session and an
// uninterrupted reference consume byte-identical input.
type scriptSource struct {
	samples []stream.Sample
	pos     int
}

func (s *scriptSource) ReadInto(dst []stream.Sample, max int) []stream.Sample {
	n := len(s.samples) - s.pos
	if max > 0 && max < n {
		n = max
	}
	dst = append(dst, s.samples[s.pos:s.pos+n]...)
	s.pos += n
	return dst
}

func scriptedEEG(subject int, seed uint64, n int) []stream.Sample {
	gen := eeg.NewGenerator(eeg.NewSubject(subject), seed)
	out := make([]stream.Sample, n)
	for i := range out {
		raw := gen.Next(eeg.Action((i / 90) % 3))
		out[i] = stream.Sample{Seq: uint64(i), Values: append([]float64(nil), raw[:]...)}
	}
	return out
}

// dropRebind is the factory for nodes that should never need to rebind.
func dropRebind(serve.RestoredSession) (serve.Source, error) { return nil, nil }

// keysByOwner finds routing keys a {node-a, node-b} ring assigns to each
// member, so tests can force (or forbid) migration deterministically.
func keysByOwner(t *testing.T) (toB []string, toA []string) {
	t.Helper()
	scratch := NewRing(0)
	scratch.Add("node-a")
	scratch.Add("node-b")
	for i := 0; len(toB) < 2 || len(toA) < 2; i++ {
		if i > 1000 {
			t.Fatal("ring never produced keys for both members")
		}
		k := fmt.Sprintf("subject:%d", i)
		if o, _ := scratch.Owner(k); o == "node-b" {
			toB = append(toB, k)
		} else {
			toA = append(toA, k)
		}
	}
	return toB, toA
}

// stripID erases the node-local session ID so stats from a migrated session
// (which gets a fresh ID on its new node) compare against the reference.
func stripID(st serve.SessionStats) serve.SessionStats {
	st.ID = 0
	return st
}

// tagStats snapshots one hub's per-tag session stats.
func tagStats(t *testing.T, hub *serve.Hub, want int) map[string]serve.SessionStats {
	t.Helper()
	out := map[string]serve.SessionStats{}
	for id, tag := range hub.SessionKeys() {
		st, ok := hub.Session(id)
		if !ok {
			t.Fatalf("session %d (%s) vanished", id, tag)
		}
		out[tag] = stripID(st)
	}
	if len(out) != want {
		t.Fatalf("hub holds %d tagged sessions, want %d", len(out), want)
	}
	return out
}

// TestTwoNodeMigrationBitwiseIdentical is the cluster acceptance test: a
// node joins mid-serve, live sessions (one mid-window script-fed, one with
// most of its stream still pending in a source ring) migrate to it over real
// TCP as streamed checkpoint records — including the model, which the
// joining node's empty registry learns from the stream — and every
// subsequent per-tick decode is bitwise-identical to an uninterrupted
// single-hub reference consuming the same input.
func TestTwoNodeMigrationBitwiseIdentical(t *testing.T) {
	clf, norm := sharedModel(t)
	const (
		totalSamples = 700
		totalTicks   = 70
		migrateTick  = 23 // mid-window: fractional sample accumulator in play
	)
	toB, toA := keysByOwner(t)
	keyScript, keyRing, keyStay := toB[0], toB[1], toA[0]

	streams := map[string][]stream.Sample{
		keyScript: scriptedEEG(0, 41, totalSamples),
		keyRing:   scriptedEEG(0, 97, totalSamples),
		keyStay:   scriptedEEG(0, 7, totalSamples),
	}
	tags := []string{keyScript, keyRing, keyStay}
	newRing := func(samples []stream.Sample) *stream.Ring {
		ring := stream.NewRing(totalSamples + 1)
		for _, smp := range samples {
			ring.Push(smp)
		}
		return ring
	}
	admitAll := func(t *testing.T, admit func(serve.SessionConfig) (serve.SessionID, error), scripts map[string]*scriptSource) {
		t.Helper()
		for _, tag := range tags {
			var src serve.Source
			if tag == keyRing {
				src = serve.RingSource{Ring: newRing(streams[tag])}
			} else {
				s := &scriptSource{samples: streams[tag]}
				scripts[tag] = s
				src = s
			}
			if _, err := admit(serve.SessionConfig{ModelKey: "rf", Source: src, Norm: norm, Tag: tag}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Reference: one uninterrupted hub over the full streams.
	ref := newHub(t, registryWith(clf))
	defer ref.Stop()
	admitAll(t, ref.Admit, map[string]*scriptSource{})
	want := make([]map[string]serve.SessionStats, 0, totalTicks)
	for i := 0; i < totalTicks; i++ {
		ref.TickAll()
		want = append(want, tagStats(t, ref, len(tags)))
	}

	// Cluster: node A serves alone, then node B joins mid-serve.
	hubA := newHub(t, registryWith(clf))
	defer hubA.Stop()
	nodeA, err := NewNode(Config{ID: "node-a", Rebind: dropRebind, Logf: t.Logf}, hubA)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	scripts := map[string]*scriptSource{}
	admitAll(t, nodeA.Admit, scripts)

	got := make([]map[string]serve.SessionStats, 0, totalTicks)
	for i := 0; i < migrateTick; i++ {
		hubA.TickAll()
		got = append(got, tagStats(t, hubA, len(tags)))
	}

	// Node B starts with an EMPTY registry: the model must arrive in the
	// migration stream itself.
	hubB := newHub(t, serve.NewRegistry())
	defer hubB.Stop()
	nodeB, err := NewNode(Config{ID: "node-b", Logf: t.Logf,
		Rebind: func(rec serve.RestoredSession) (serve.Source, error) {
			switch rec.Tag {
			case keyScript:
				// Resume the feed exactly where node A's dead source stopped.
				return &scriptSource{samples: streams[keyScript][scripts[keyScript].pos:]}, nil
			case keyRing:
				// The buffered remainder rides in as pending samples.
				return serve.RingSource{Ring: stream.NewRing(8)}, nil
			default:
				return nil, fmt.Errorf("unexpected migrated tag %q", rec.Tag)
			}
		}}, hubB)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	if err := nodeB.Join(nodeA.Addr()); err != nil {
		t.Fatal(err)
	}

	if n := hubA.Sessions(); n != 1 {
		t.Fatalf("node A holds %d sessions after join, want 1", n)
	}
	if n := hubB.Sessions(); n != 2 {
		t.Fatalf("node B holds %d sessions after join, want 2", n)
	}
	if snap := nodeB.Snapshot(); snap.MigratedIn != 2 {
		t.Fatalf("node B migrated-in counter = %d, want 2", snap.MigratedIn)
	}
	if _, _, ok := hubB.Registry().Get("rf"); !ok {
		t.Fatal("model did not arrive with the migration stream")
	}

	for i := migrateTick; i < totalTicks; i++ {
		hubA.TickAll()
		hubB.TickAll()
		merged := tagStats(t, hubA, 1)
		for tag, st := range tagStats(t, hubB, 2) {
			merged[tag] = st
		}
		got = append(got, merged)
	}

	for i := range want {
		for _, tag := range tags {
			if !reflect.DeepEqual(got[i][tag], want[i][tag]) {
				t.Fatalf("tick %d session %q diverged after migration:\n got %+v\nwant %+v",
					i, tag, got[i][tag], want[i][tag])
			}
		}
	}
}

// TestAdmitRouting: a node refuses keys the ring routes elsewhere, naming
// the owner, and accepts its own.
func TestAdmitRouting(t *testing.T) {
	clf, norm := sharedModel(t)
	toB, toA := keysByOwner(t)

	hubA, hubB := newHub(t, registryWith(clf)), newHub(t, registryWith(clf))
	defer hubA.Stop()
	defer hubB.Stop()
	nodeA, err := NewNode(Config{ID: "node-a", Rebind: dropRebind}, hubA)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	nodeB, err := NewNode(Config{ID: "node-b", Rebind: dropRebind}, hubB)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	if err := nodeB.Join(nodeA.Addr()); err != nil {
		t.Fatal(err)
	}

	sc := serve.SessionConfig{ModelKey: "rf", Source: &scriptSource{}, Norm: norm, Tag: toB[0]}
	_, err = nodeA.Admit(sc)
	var notOwner *NotOwnerError
	if !errors.As(err, &notOwner) {
		t.Fatalf("admitting a foreign key returned %v, want NotOwnerError", err)
	}
	if notOwner.Owner != "node-b" || notOwner.Addr != nodeB.Addr() {
		t.Fatalf("redirect points at %s (%s), want node-b (%s)", notOwner.Owner, notOwner.Addr, nodeB.Addr())
	}
	if _, err := nodeB.Admit(sc); err != nil {
		t.Fatal(err)
	}
	sc.Tag = toA[0]
	sc.Source = &scriptSource{}
	if _, err := nodeA.Admit(sc); err != nil {
		t.Fatal(err)
	}
	if _, err := nodeA.Admit(serve.SessionConfig{ModelKey: "rf", Source: &scriptSource{}, Norm: norm}); err == nil {
		t.Fatal("cluster admit accepted a session without a routing key")
	}
}

// TestJoinRebalancesJoinerSessions: a node that cold-started its own fleet
// and then joins must push away the sessions the merged ring assigns to
// existing members — join rebalances both directions, not just toward the
// joiner.
func TestJoinRebalancesJoinerSessions(t *testing.T) {
	clf, norm := sharedModel(t)
	toB, toA := keysByOwner(t)

	hubA, hubB := newHub(t, registryWith(clf)), newHub(t, registryWith(clf))
	defer hubA.Stop()
	defer hubB.Stop()
	rebind := func(rec serve.RestoredSession) (serve.Source, error) {
		return &scriptSource{}, nil
	}
	nodeA, err := NewNode(Config{ID: "node-a", Rebind: rebind, Logf: t.Logf}, hubA)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	nodeB, err := NewNode(Config{ID: "node-b", Rebind: rebind, Logf: t.Logf}, hubB)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	// B serves alone, so it legitimately owns every key — including ones
	// the merged ring will hand to A.
	for _, tag := range []string{toA[0], toA[1], toB[0]} {
		if _, err := nodeB.Admit(serve.SessionConfig{ModelKey: "rf", Source: &scriptSource{}, Norm: norm, Tag: tag}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodeB.Join(nodeA.Addr()); err != nil {
		t.Fatal(err)
	}
	if n := hubB.Sessions(); n != 1 {
		t.Fatalf("joiner kept %d sessions, want 1 (only its own key)", n)
	}
	if n := hubA.Sessions(); n != 2 {
		t.Fatalf("existing member received %d sessions, want 2", n)
	}
	keys := hubA.SessionKeys()
	gotTags := map[string]bool{}
	for _, tag := range keys {
		gotTags[tag] = true
	}
	if !gotTags[toA[0]] || !gotTags[toA[1]] {
		t.Fatalf("node A holds %v, want its own keys %v", keys, toA[:2])
	}
}

// TestDrainHandsOffEverySession: draining a node moves its whole fleet to
// the surviving member (the kill-one-node runbook), which keeps serving it.
func TestDrainHandsOffEverySession(t *testing.T) {
	clf, norm := sharedModel(t)

	boardRebind := func(rec serve.RestoredSession) (serve.Source, error) {
		b := board.NewSyntheticCyton(eeg.NewSubject(0), 1000+uint64(rec.ID), false)
		if err := b.Start(); err != nil {
			return nil, err
		}
		return b, nil
	}
	hubA, hubB := newHub(t, registryWith(clf)), newHub(t, registryWith(clf))
	defer hubA.Stop()
	defer hubB.Stop()
	nodeA, err := NewNode(Config{ID: "node-a", Rebind: boardRebind, Logf: t.Logf}, hubA)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	nodeB, err := NewNode(Config{ID: "node-b", Rebind: boardRebind, Logf: t.Logf}, hubB)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	if err := nodeB.Join(nodeA.Addr()); err != nil {
		t.Fatal(err)
	}

	total := 0
	for i := 0; i < 6; i++ {
		tag := fmt.Sprintf("subject:%d", i)
		sc := serve.SessionConfig{ModelKey: "rf", Norm: norm, Tag: tag}
		node := nodeA
		if owner, _, local := nodeA.Owner(tag); !local {
			if owner != "node-b" {
				t.Fatalf("unexpected owner %s", owner)
			}
			node = nodeB
		}
		src, err := boardRebind(serve.RestoredSession{ID: serve.SessionID(i)})
		if err != nil {
			t.Fatal(err)
		}
		sc.Source = src
		if _, err := node.Admit(sc); err != nil {
			t.Fatal(err)
		}
		total++
	}
	for i := 0; i < 10; i++ {
		hubA.TickAll()
		hubB.TickAll()
	}

	if err := nodeA.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := hubA.Sessions(); n != 0 {
		t.Fatalf("drained node still holds %d sessions", n)
	}
	if n := hubB.Sessions(); n != total {
		t.Fatalf("surviving node holds %d sessions, want %d", n, total)
	}
	if got := nodeB.Ring().Nodes(); len(got) != 1 || got[0] != "node-b" {
		t.Fatalf("survivor's ring is %v, want [node-b]", got)
	}
	// The survivor keeps decoding the whole fleet.
	before := hubB.Snapshot().Inferences
	for i := 0; i < 20; i++ {
		hubB.TickAll()
	}
	if after := hubB.Snapshot().Inferences; after <= before {
		t.Fatalf("survivor stopped decoding after takeover (%d → %d inferences)", before, after)
	}
	// A second drain has nowhere to go.
	if err := nodeB.Drain(); err == nil {
		t.Fatal("single-member drain did not error")
	}
}

// TestClusterUnderLoadRace is the -race workout: a node joins and another
// drains while both hubs run real paced shard loops, so membership changes,
// migrations and ticks interleave freely.
func TestClusterUnderLoadRace(t *testing.T) {
	clf, norm := sharedModel(t)
	boardRebind := func(rec serve.RestoredSession) (serve.Source, error) {
		b := board.NewSyntheticCyton(eeg.NewSubject(0), 2000+uint64(rec.ID), false)
		if err := b.Start(); err != nil {
			return nil, err
		}
		return b, nil
	}
	mkHub := func(reg *serve.Registry) *serve.Hub {
		hub, err := serve.NewHub(serve.Config{Shards: 2, MaxSessionsPerShard: 16, TickHz: 200, LatencyWindow: 64}, reg)
		if err != nil {
			t.Fatal(err)
		}
		return hub
	}
	hubA := mkHub(registryWith(clf))
	nodeA, err := NewNode(Config{ID: "node-a", Rebind: boardRebind}, hubA)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	for i := 0; i < 8; i++ {
		b := board.NewSyntheticCyton(eeg.NewSubject(0), uint64(i)+1, false)
		if err := b.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := nodeA.Admit(serve.SessionConfig{
			ModelKey: "rf", Source: b, Norm: norm, Tag: fmt.Sprintf("subject:%d", i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	hubA.Start()

	hubB := mkHub(registryWith(clf))
	nodeB, err := NewNode(Config{ID: "node-b", Rebind: boardRebind}, hubB)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	hubB.Start()
	if err := nodeB.Join(nodeA.Addr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // serve across both nodes for a while
	if err := nodeA.Drain(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := hubB.Sessions(); n != 8 {
		t.Fatalf("survivor holds %d sessions, want 8", n)
	}
	hubA.Stop()
	hubB.Stop()
}
