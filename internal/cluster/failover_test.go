package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cognitivearm/internal/cluster/faultnet"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/stream"
)

// keysOwnedBy finds n routing keys a {node-a, node-b} ring assigns to owner.
func keysOwnedBy(t *testing.T, owner string, n int) []string {
	t.Helper()
	scratch := NewRing(0)
	scratch.Add("node-a")
	scratch.Add("node-b")
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if i > 10000 {
			t.Fatalf("ring never produced %d keys for %s", n, owner)
		}
		k := fmt.Sprintf("subject:%d", i)
		if o, _ := scratch.Owner(k); o == owner {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestFailoverKillUnderLoad is the high-availability acceptance test: a
// two-node cluster serves three sessions on node A, replicating to its
// standby node B every replEvery ticks, when node A is killed mid-stream
// (hard close, no drain). The test then proves, with no sleeps standing in
// for synchronization:
//
//   - B's failure detector reaps A (driven by an explicit future clock, not
//     by waiting out the suspicion floor);
//   - B promotes all of A's replica sessions, including the model its own
//     registry never held — it arrived over the replication tail;
//   - every promoted session resumes bitwise-identically from the last
//     replicated record: its stats equal the uninterrupted reference at the
//     last replication tick, and every subsequent script-fed tick matches
//     the reference exactly;
//   - the loss is bounded by one replication interval (ticks since the last
//     acknowledged batch, never more than replEvery);
//   - a UDP streamer whose socket died with A re-homes via the Locate
//     redirect to the promoted session's fresh ingest address and its
//     samples decode on B.
func TestFailoverKillUnderLoad(t *testing.T) {
	clf, norm := sharedModel(t)
	const (
		totalSamples = 700
		totalTicks   = 70
		replEvery    = 8  // ticks between ReplicateOnce calls
		killTick     = 20 // ticks A serves before the kill
	)
	aKeys := keysOwnedBy(t, "node-a", 3)
	keyS1, keyS2, keyUDP := aKeys[0], aKeys[1], aKeys[2]
	scriptKeys := []string{keyS1, keyS2}

	streams := map[string][]stream.Sample{
		keyS1:  scriptedEEG(0, 41, totalSamples),
		keyS2:  scriptedEEG(0, 97, totalSamples),
		keyUDP: scriptedEEG(0, 7, totalSamples),
	}
	tags := []string{keyS1, keyS2, keyUDP}
	fullRing := func(samples []stream.Sample) *stream.Ring {
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
			if tag == keyUDP {
				// Pre-kill the "UDP" session is fed from a fully scripted ring:
				// deterministic, so it participates in the bitwise reference.
				// Only its post-failover re-homing uses a real socket.
				src = serve.RingSource{Ring: fullRing(streams[tag])}
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

	tel := clusterTel()
	reapsBefore := tel.reaps.Value()
	failoversBefore := tel.failovers.Value()
	promotedBefore := tel.promoted.Value()
	batchesOutBefore := tel.replBatchesOut.Value()
	batchesInBefore := tel.replBatchesIn.Value()

	// Primary: node A serves all three sessions, replicating to standby B.
	hubA := newHub(t, registryWith(clf))
	defer hubA.Stop()
	nodeA, err := NewNode(Config{ID: "node-a", Replicas: 1, Rebind: dropRebind, Logf: t.Logf}, hubA)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	scripts := map[string]*scriptSource{}
	admitAll(t, nodeA.Admit, scripts)

	// Standby: node B starts with an EMPTY registry — the model must arrive
	// over the replication tail. Its rebind factory is the promotion seam:
	// script sessions resume from the position recorded at the last
	// replication, and the UDP session gets a fresh inlet socket for the
	// redirect leg.
	replPos := map[string]int{}
	var inletMu sync.Mutex
	var inlet *stream.UDPInlet
	clock := stream.NewVirtualClock(0, 0)
	hubB := newHub(t, serve.NewRegistry())
	defer hubB.Stop()
	nodeB, err := NewNode(Config{ID: "node-b", Replicas: 1, Logf: t.Logf,
		Rebind: func(rec serve.RestoredSession) (serve.Source, error) {
			switch rec.Tag {
			case keyS1, keyS2:
				return &scriptSource{samples: streams[rec.Tag][replPos[rec.Tag]:]}, nil
			case keyUDP:
				in, err := stream.NewUDPInlet(clock, 4096)
				if err != nil {
					return nil, err
				}
				inletMu.Lock()
				inlet = in
				inletMu.Unlock()
				return serve.RingSource{Ring: in.Ring, Closer: in}, nil
			}
			return nil, fmt.Errorf("unexpected promoted tag %q", rec.Tag)
		}}, hubB)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	if err := nodeB.Join(nodeA.Addr()); err != nil {
		t.Fatal(err)
	}
	if n := hubA.Sessions(); n != 3 {
		t.Fatalf("node A holds %d sessions after join, want 3 (all keys route to it)", n)
	}
	if got := nodeA.Standbys(); len(got) != 1 || got[0] != "node-b" {
		t.Fatalf("node A standbys = %v, want [node-b]", got)
	}

	// Drive A in lockstep with the reference, replicating every replEvery
	// ticks. Heartbeats ride along each tick so both detectors see a live
	// peer right up to the kill.
	replIdx := -1
	for i := 0; i < killTick; i++ {
		hubA.TickAll()
		if st := tagStats(t, hubA, 3); !reflect.DeepEqual(st, want[i]) {
			t.Fatalf("tick %d: node A diverged from reference before the kill:\n got %+v\nwant %+v", i, st, want[i])
		}
		nodeA.SendHeartbeats()
		nodeB.SendHeartbeats()
		if (i+1)%replEvery == 0 {
			if err := nodeA.ReplicateOnce(); err != nil {
				t.Fatal(err)
			}
			replIdx = i
			for _, tag := range scriptKeys {
				replPos[tag] = scripts[tag].pos
			}
		}
	}
	if replIdx < 0 {
		t.Fatal("kill tick precedes first replication; test proves nothing")
	}
	if lost := (killTick - 1) - replIdx; lost > replEvery {
		t.Fatalf("%d ticks would be lost, bound is one replication interval (%d)", lost, replEvery)
	}
	if st := nodeB.Status().(Status); st.ReplicaSessions != 3 || len(st.ReplicaOf) != 1 || st.ReplicaOf[0] != "node-a" {
		t.Fatalf("standby status %+v, want a 3-session replica of node-a", st)
	}

	// The ring-fed session must still hold buffered samples at the kill, or
	// the promotion below no longer covers samples in flight.
	pending := -1
	for _, rec := range hubA.CaptureState().Sessions {
		if rec.Tag == keyUDP {
			pending = len(rec.Pending)
		}
	}
	if pending <= 0 {
		t.Fatalf("ring session %q holds %d pending samples at the kill, want some", keyUDP, pending)
	}

	// Kill node A: hard close, no drain, no leave notification. The hub stops
	// too — its sessions die with the process.
	nodeA.Close()
	hubA.Stop()

	// B's detector is driven with an explicit future instant: one hour of
	// silence is past any floor, so the reap decision is deterministic — no
	// waiting out the suspicion window in real time.
	reaped := nodeB.DetectFailures(time.Now().Add(time.Hour))
	if len(reaped) != 1 || reaped[0] != "node-a" {
		t.Fatalf("DetectFailures reaped %v, want [node-a]", reaped)
	}
	if got := nodeB.Ring().Nodes(); len(got) != 1 || got[0] != "node-b" {
		t.Fatalf("survivor's ring is %v, want [node-b]", got)
	}
	if n := hubB.Sessions(); n != 3 {
		t.Fatalf("survivor promoted %d sessions, want 3", n)
	}
	if _, _, ok := hubB.Registry().Get("rf"); !ok {
		t.Fatal("model did not arrive over the replication tail")
	}

	// Bitwise continuation: the promoted sessions are exactly the reference
	// at the last replicated tick — one replication interval of staleness,
	// nothing more, nothing else lost.
	promotedStats := tagStats(t, hubB, 3)
	for _, tag := range tags {
		if !reflect.DeepEqual(promotedStats[tag], want[replIdx][tag]) {
			t.Fatalf("promoted session %q is not the replicated snapshot:\n got %+v\nwant %+v",
				tag, promotedStats[tag], want[replIdx][tag])
		}
	}

	// Re-run the lost ticks and the rest of the schedule on B. The script
	// sessions must match the reference tick for tick; the UDP session sits
	// idle (its stream died with A's socket) until the redirect leg re-homes
	// it below.
	for i := replIdx + 1; i < totalTicks; i++ {
		hubB.TickAll()
		st := tagStats(t, hubB, 3)
		for _, tag := range scriptKeys {
			if !reflect.DeepEqual(st[tag], want[i][tag]) {
				t.Fatalf("tick %d session %q diverged after failover:\n got %+v\nwant %+v", i, tag, st[tag], want[i][tag])
			}
		}
	}

	// Redirect: the streamer asks the survivor where its key lives now and
	// gets back the promoted session's fresh ingest address.
	loc, err := Locate(nodeB.Addr(), keyUDP)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Owner != "node-b" || loc.Addr != nodeB.Addr() {
		t.Fatalf("locate answered %+v, want owner node-b at %s", loc, nodeB.Addr())
	}
	inletMu.Lock()
	in := inlet
	inletMu.Unlock()
	if in == nil {
		t.Fatal("promotion never created the UDP session's inlet")
	}
	if loc.SourceAddr != in.Addr() {
		t.Fatalf("locate ingest address = %q, want the promoted inlet %q", loc.SourceAddr, in.Addr())
	}

	// Re-home: push fresh samples at the redirected address and decode them.
	decodedBefore := tagStats(t, hubB, 3)[keyUDP].Decoded
	outlet, err := stream.NewUDPOutlet(loc.SourceAddr, clock, stream.LinkConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen := eeg.NewGenerator(eeg.NewSubject(0), 1234)
	for i := 0; i < 300; i++ {
		raw := gen.Next(eeg.Left)
		outlet.Push(raw[:])
	}
	outlet.Close()
	// The only wait in this test, and it is on real kernel UDP delivery —
	// external I/O the harness cannot schedule — not on goroutine
	// synchronization. Bounded by a hard deadline.
	deadline := time.Now().Add(5 * time.Second)
	for tagStats(t, hubB, 3)[keyUDP].Decoded == decodedBefore {
		if !time.Now().Before(deadline) {
			t.Fatal("re-homed UDP samples never decoded on the survivor")
		}
		hubB.TickAll()
		time.Sleep(2 * time.Millisecond)
	}

	// Telemetry: exactly one reap, one failover, three promoted sessions, and
	// the replication batch counters moved on both ends.
	if got := tel.reaps.Value() - reapsBefore; got != 1 {
		t.Fatalf("reap counter moved by %d, want 1", got)
	}
	if got := tel.failovers.Value() - failoversBefore; got != 1 {
		t.Fatalf("failover counter moved by %d, want 1", got)
	}
	if got := tel.promoted.Value() - promotedBefore; got != 3 {
		t.Fatalf("promoted-session counter moved by %d, want 3", got)
	}
	wantBatches := uint64(killTick / replEvery)
	if got := tel.replBatchesOut.Value() - batchesOutBefore; got != wantBatches {
		t.Fatalf("outbound batch counter moved by %d, want %d", got, wantBatches)
	}
	if got := tel.replBatchesIn.Value() - batchesInBefore; got != wantBatches {
		t.Fatalf("inbound batch counter moved by %d, want %d", got, wantBatches)
	}
	if got := tel.replicaSessions.Value(); got != 0 {
		t.Fatalf("replica-session gauge = %v after promotion consumed the image, want 0", got)
	}
}

// TestOneWayPartitionDoesNotReap: heartbeats carry liveness in both
// directions — an answered ping proves the peer to the sender, a received
// ping proves the sender to the peer. A one-way partition (A cannot dial B,
// B still dials A) therefore keeps BOTH detectors fresh, and neither side
// reaps. Only a full partition does, and then deterministically on both
// sides once the explicit clock crosses the floor.
func TestOneWayPartitionDoesNotReap(t *testing.T) {
	mkNode := func(id string, nw *faultnet.Network) (*Node, *serve.Hub) {
		hub := newHub(t, serve.NewRegistry())
		n, err := NewNode(Config{ID: id, Rebind: dropRebind, Logf: t.Logf, Dial: nw.Dial}, hub)
		if err != nil {
			t.Fatal(err)
		}
		return n, hub
	}
	nwA, nwB := faultnet.NewNetwork(1), faultnet.NewNetwork(2)
	nodeA, hubA := mkNode("node-a", nwA)
	defer hubA.Stop()
	defer nodeA.Close()
	nodeB, hubB := mkNode("node-b", nwB)
	defer hubB.Stop()
	defer nodeB.Close()
	if err := nodeB.Join(nodeA.Addr()); err != nil {
		t.Fatal(err)
	}

	// One-way partition: every dial from A toward B is refused outright.
	// Refused dials fail instantly, so the silent side costs nothing — no
	// ping timeout to wait out.
	nwA.Plan(nodeB.Addr()).RefuseDials(true)
	for i := 0; i < 5; i++ {
		nodeA.SendHeartbeats() // all fail: A cannot reach B
		nodeB.SendHeartbeats() // all succeed: B's pings also beat A's detector
	}
	if got := nodeA.DetectFailures(time.Now()); len(got) != 0 {
		t.Fatalf("one-way partition: A reaped %v on inbound liveness alone", got)
	}
	if got := nodeB.DetectFailures(time.Now()); len(got) != 0 {
		t.Fatalf("one-way partition: B reaped %v despite answered pings", got)
	}
	if phi := nodeA.det.Phi("node-b", time.Now()); phi >= DefaultPhiThreshold {
		t.Fatalf("A's suspicion of B is %.1f under a one-way partition, want < %.1f", phi, DefaultPhiThreshold)
	}

	// Full partition: now B cannot dial A either. With an explicit clock a
	// floor's worth past the last beat, both sides reap the other — the
	// documented symmetric-partition divergence, reached deterministically.
	nwB.Plan(nodeA.Addr()).RefuseDials(true)
	nodeA.SendHeartbeats()
	nodeB.SendHeartbeats()
	future := time.Now().Add(DefaultSuspectAfter * 10)
	if got := nodeA.DetectFailures(future); len(got) != 1 || got[0] != "node-b" {
		t.Fatalf("full partition: A reaped %v, want [node-b]", got)
	}
	if got := nodeB.DetectFailures(future); len(got) != 1 || got[0] != "node-a" {
		t.Fatalf("full partition: B reaped %v, want [node-a]", got)
	}
	for _, n := range []*Node{nodeA, nodeB} {
		if got := n.Ring().Nodes(); len(got) != 1 || got[0] != n.ID() {
			t.Fatalf("%s's ring after full partition is %v, want itself alone", n.ID(), got)
		}
	}
}

// TestReapedMemberPingRefused: a reaped member that comes back without
// re-joining gets a loud refusal, not a quiet beat — a ghost must re-Join.
func TestReapedMemberPingRefused(t *testing.T) {
	hubA, hubB := newHub(t, serve.NewRegistry()), newHub(t, serve.NewRegistry())
	defer hubA.Stop()
	defer hubB.Stop()
	nodeA, err := NewNode(Config{ID: "node-a", Rebind: dropRebind, Logf: t.Logf}, hubA)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	nodeB, err := NewNode(Config{ID: "node-b", Rebind: dropRebind, Logf: t.Logf}, hubB)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	if err := nodeB.Join(nodeA.Addr()); err != nil {
		t.Fatal(err)
	}
	if reaped := nodeA.DetectFailures(time.Now().Add(time.Hour)); len(reaped) != 1 || reaped[0] != "node-b" {
		t.Fatalf("reaped %v, want [node-b]", reaped)
	}
	// B still thinks it is a member and pings A: the refusal must name it.
	_, _, err = nodeB.callTimeout(nodeA.Addr(), verbPing, memberMsg{ID: "node-b", Addr: nodeB.Addr()}, nil, pingTimeout)
	if err == nil || !strings.Contains(err.Error(), "unknown member node-b") {
		t.Fatalf("reaped member's ping returned %v, want an unknown-member refusal", err)
	}
}
