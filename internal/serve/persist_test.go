package serve

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/stream"
	"cognitivearm/internal/wal"
)

// scriptSource replays a fixed pre-generated sample stream — the
// deterministic stand-in for a live subject that lets two hubs (or one hub
// killed and restored) consume byte-identical input.
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

// scriptedEEG pre-generates a deterministic multichannel stream whose intent
// wanders, so decoded labels change over time.
func scriptedEEG(subject int, seed uint64, n int) []stream.Sample {
	gen := eeg.NewGenerator(eeg.NewSubject(subject), seed)
	out := make([]stream.Sample, n)
	for i := range out {
		raw := gen.Next(eeg.Action((i / 90) % 3))
		out[i] = stream.Sample{Seq: uint64(i), Values: append([]float64(nil), raw[:]...)}
	}
	return out
}

// requirePending fails unless session id's record in state still carries
// buffered samples. The bitwise suites exist to cover a kill with samples in
// flight; a drain rule that empties the ring before the kill would pass them
// without testing that path.
func requirePending(t *testing.T, state *checkpoint.FleetState, id SessionID) {
	t.Helper()
	for _, rec := range state.Sessions {
		if SessionID(rec.ID) == id {
			if len(rec.Pending) == 0 {
				t.Fatalf("session %d holds no pending samples at the kill: the suite no longer covers in-flight samples", id)
			}
			return
		}
	}
	t.Fatalf("session %d missing from the captured fleet", id)
}

// testJournal binds a journal over a fresh WAL directory to hub — the hub's
// one checkpoint writer — and closes it when the test ends.
func testJournal(t *testing.T, hub *Hub) *Journal {
	t.Helper()
	j, _, err := NewJournal(hub, wal.Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// tickStats advances the hub one tick and returns each session's stats.
func tickStats(t *testing.T, hub *Hub, ids []SessionID) []SessionStats {
	t.Helper()
	hub.TickAll()
	out := make([]SessionStats, len(ids))
	for i, id := range ids {
		st, ok := hub.Session(id)
		if !ok {
			t.Fatalf("session %d vanished", id)
		}
		out[i] = st
	}
	return out
}

// TestKillAndRestoreBitwiseIdentical is the acceptance test for fleet
// checkpointing: a hub killed mid-serve (mid-window, mid-debounce, with
// samples still buffered in a source ring) and restored from disk must emit
// exactly the per-tick decode sequence the uninterrupted hub emits for the
// same subsequent input stream — no retraining, no re-warmup, no divergence.
// Each model serves one scripted and one ring-fed session: the forest, and
// the CNN, whose restored sessions rebuild their conv streams (never
// captured) on their first tick.
func TestKillAndRestoreBitwiseIdentical(t *testing.T) {
	reg, p := testFleet(t)
	addCNN(t, reg, p)
	const (
		totalSamples = 700
		totalTicks   = 70
		killTick     = 23 // mid-window, fractional sample accumulator in play
	)
	// Sessions 0 and 2 replay a script; 1 and 3 are ring-fed with the entire
	// stream buffered upfront, so the kill point leaves most of it pending.
	streamA := scriptedEEG(0, 41, totalSamples)
	streamB := scriptedEEG(0, 97, totalSamples)
	streamC := scriptedEEG(0, 53, totalSamples)

	admit := func(hub *Hub, src Source, tag string) SessionID {
		t.Helper()
		model := "rf"
		if strings.HasPrefix(tag, "cnn-") {
			model = "cnn"
		}
		id, err := hub.Admit(SessionConfig{ModelKey: model, Source: src, Norm: p.NormFor(0), Tag: tag})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	newRing := func(samples []stream.Sample) *stream.Ring {
		ring := stream.NewRing(totalSamples + 1)
		for _, smp := range samples {
			ring.Push(smp)
		}
		return ring
	}
	cfg := Config{Shards: 2, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 32}

	// Reference: one uninterrupted hub over the full stream.
	ref, err := NewHub(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()
	refIDs := []SessionID{
		admit(ref, &scriptSource{samples: streamA}, "script"),
		admit(ref, RingSource{Ring: newRing(streamB)}, "ring"),
		admit(ref, &scriptSource{samples: streamC}, "cnn-script"),
		admit(ref, RingSource{Ring: newRing(streamB)}, "cnn-ring"),
	}
	var want []SessionStats
	for i := 0; i < totalTicks; i++ {
		want = append(want, tickStats(t, ref, refIDs)...)
	}

	// Victim: identical hub, killed at killTick.
	victim, err := NewHub(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	script, cnnScript := &scriptSource{samples: streamA}, &scriptSource{samples: streamC}
	ids := []SessionID{
		admit(victim, script, "script"),
		admit(victim, RingSource{Ring: newRing(streamB)}, "ring"),
		admit(victim, cnnScript, "cnn-script"),
		admit(victim, RingSource{Ring: newRing(streamB)}, "cnn-ring"),
	}
	var got []SessionStats
	for i := 0; i < killTick; i++ {
		got = append(got, tickStats(t, victim, ids)...)
	}
	dir := t.TempDir()
	if _, err := testJournal(t, victim).Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	consumed, cnnConsumed := script.pos, cnnScript.pos // what the dead process had already read
	requirePending(t, victim.CaptureState(), ids[1])
	requirePending(t, victim.CaptureState(), ids[3])
	victim.Stop() // the "kill"

	// Restore into a fresh hub. The script session resumes from the exact
	// sample the dead hub stopped at; the ring session's buffered remainder
	// rides in as pending samples, so its new source is empty.
	restored, rdir, _, err := RestoreHubWal(dir, "", func(rec RestoredSession) (Source, error) {
		switch rec.Tag {
		case "script":
			return &scriptSource{samples: streamA[consumed:]}, nil
		case "cnn-script":
			return &scriptSource{samples: streamC[cnnConsumed:]}, nil
		case "ring", "cnn-ring":
			return RingSource{Ring: stream.NewRing(8)}, nil
		default:
			t.Fatalf("unexpected tag %q", rec.Tag)
			return nil, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Stop()
	if filepath.Base(rdir) != "ckpt-00000001" {
		t.Fatalf("restored from %s", rdir)
	}
	if restored.Sessions() != len(ids) {
		t.Fatalf("restored %d sessions, want %d", restored.Sessions(), len(ids))
	}
	for i := killTick; i < totalTicks; i++ {
		got = append(got, tickStats(t, restored, ids)...)
	}

	if len(got) != len(want) {
		t.Fatalf("recorded %d stats, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("tick %d session %d diverged after restore:\n got %+v\nwant %+v",
				i/len(ids), i%len(ids), got[i], want[i])
		}
	}
}

// TestCheckpointRestoresIdleClock pins the scheduler half of a session record:
// a fleet holding a streaming session, one that streamed and fell silent, and
// one admitted ahead of its client (never fed, as cogarmd -listen does) is
// killed while the silent session's idle clock is running. The restored fleet
// must hold exactly the killed fleet's records — IdleTicks, SampleAcc and Fed
// included — and then evict the silent session on the tick the uninterrupted
// fleet does, while the never-fed session keeps waiting.
func TestCheckpointRestoresIdleClock(t *testing.T) {
	reg, p := testFleet(t)
	const (
		totalTicks = 60
		killTick   = 30 // the silent session is ~10 ticks into a 25-tick idle budget
	)
	cfg := Config{Shards: 2, MaxSessionsPerShard: 2, TickHz: 15, MaxIdleTicks: 25, LatencyWindow: 32}
	streams := [][]stream.Sample{scriptedEEG(0, 11, 700), scriptedEEG(0, 23, 160), nil}
	build := func() (*Hub, []SessionID, []*scriptSource) {
		hub, err := NewHub(cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
		var ids []SessionID
		var srcs []*scriptSource
		for _, s := range streams {
			src := &scriptSource{samples: s}
			id, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: src, Norm: p.NormFor(0)})
			if err != nil {
				t.Fatal(err)
			}
			ids, srcs = append(ids, id), append(srcs, src)
		}
		return hub, ids, srcs
	}
	type seen struct {
		live bool
		st   SessionStats
	}
	tick := func(hub *Hub, ids []SessionID) []seen {
		hub.TickAll()
		out := make([]seen, len(ids))
		for i, id := range ids {
			out[i].st, out[i].live = hub.Session(id)
		}
		return out
	}

	ref, refIDs, _ := build()
	defer ref.Stop()
	var want [][]seen
	evictTick := -1
	for i := 0; i < totalTicks; i++ {
		want = append(want, tick(ref, refIDs))
		if evictTick < 0 && !want[i][1].live {
			evictTick = i
		}
	}
	if evictTick <= killTick || !want[totalTicks-1][0].live || !want[totalTicks-1][2].live {
		t.Fatalf("reference fleet: silent session evicted at tick %d (kill at %d), streaming live %v, never-fed live %v",
			evictTick, killTick, want[totalTicks-1][0].live, want[totalTicks-1][2].live)
	}

	victim, ids, srcs := build()
	for i := 0; i < killTick; i++ {
		if got := tick(victim, ids); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("victim diverged from the reference before the kill, tick %d", i)
		}
	}
	root := t.TempDir()
	if _, err := testJournal(t, victim).Checkpoint(root); err != nil {
		t.Fatal(err)
	}
	killed := victim.CaptureState().Sessions
	victim.Stop()
	byID := map[SessionID]checkpoint.SessionRecord{}
	for _, rec := range killed {
		byID[SessionID(rec.ID)] = rec
	}
	if silent, unfed := byID[ids[1]], byID[ids[2]]; !silent.Fed || silent.IdleTicks == 0 || unfed.Fed || unfed.IdleTicks != killTick {
		t.Fatalf("kill point is not mid-idle: silent fed %v idle %d, never-fed fed %v idle %d",
			silent.Fed, silent.IdleTicks, unfed.Fed, unfed.IdleTicks)
	}

	restored, _, _, err := RestoreHubWal(root, "", func(rec RestoredSession) (Source, error) {
		for i, id := range ids {
			if id == rec.ID {
				return &scriptSource{samples: streams[i][srcs[i].pos:]}, nil
			}
		}
		return nil, errors.New("unknown session")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Stop()
	if got := restored.CaptureState().Sessions; !reflect.DeepEqual(got, killed) {
		t.Fatalf("restored records differ from the killed fleet's:\n got %+v\nwant %+v", got, killed)
	}
	for i := killTick; i < totalTicks; i++ {
		if got := tick(restored, ids); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("tick %d after restore (reference evicts at %d):\n got %+v\nwant %+v", i, evictTick, got, want[i])
		}
	}
}

// TestRestorePreservesFleetShape pins the bookkeeping half of restore: shard
// assignment, session IDs, metric counter baselines, tags and the admission
// index all survive, and new admissions do not collide with restored IDs.
func TestRestorePreservesFleetShape(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 2, MaxSessionsPerShard: 4, TickHz: 15, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []SessionID
	for i := 0; i < 4; i++ {
		id, err := hub.Admit(boardSession(t, p, 0, uint64(i)+1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 20; i++ {
		hub.TickAll()
	}
	before := hub.Snapshot()
	state := hub.CaptureState()
	hub.Stop()

	restored, err := RestoreHub(state, func(rec RestoredSession) (Source, error) {
		return &scriptSource{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Stop()
	after := restored.Snapshot()
	if after.Sessions != before.Sessions || after.Ticks != before.Ticks ||
		after.Inferences != before.Inferences || after.SamplesIn != before.SamplesIn {
		t.Fatalf("counters not restored:\n got %+v\nwant %+v", after, before)
	}
	for i, s := range after.Shards {
		if s.Sessions != before.Shards[i].Sessions {
			t.Fatalf("shard %d has %d sessions, want %d (assignment not preserved)",
				i, s.Sessions, before.Shards[i].Sessions)
		}
	}
	for _, id := range ids {
		st, ok := restored.Session(id)
		if !ok {
			t.Fatalf("session %d missing after restore", id)
		}
		if st.Decoded == 0 {
			t.Fatalf("session %d lost its decode counters", id)
		}
	}
	// Fresh admissions continue past the restored ID space.
	nid, err := restored.Admit(SessionConfig{ModelKey: "rf", Source: &scriptSource{}, Norm: p.NormFor(0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if nid == id {
			t.Fatalf("new session reused restored ID %d", id)
		}
	}
}

// TestRestoreSourceFactoryDrops verifies a factory returning (nil, nil)
// drops just that session, the documented path for external clients that
// will reconnect on their own.
func TestRestoreSourceFactoryDrops(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 4, TickHz: 15, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: &scriptSource{}, Norm: p.NormFor(0), Tag: "keep"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: &scriptSource{}, Norm: p.NormFor(0), Tag: "drop"}); err != nil {
		t.Fatal(err)
	}
	state := hub.CaptureState()
	hub.Stop()
	restored, err := RestoreHub(state, func(rec RestoredSession) (Source, error) {
		if rec.Tag == "drop" {
			return nil, nil
		}
		return &scriptSource{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Stop()
	if n := restored.Sessions(); n != 1 {
		t.Fatalf("restored %d sessions, want 1", n)
	}
	if _, ok := restored.Session(keep); !ok {
		t.Fatal("kept session missing")
	}
}

// TestRestoreRejectsDamage: a corrupted only-checkpoint must fail restore
// with a wrapped corruption error, and an empty directory must report
// ErrNoCheckpoint — never a half-restored hub.
func TestRestoreRejectsDamage(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: &scriptSource{}, Norm: p.NormFor(0)}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ckpt, err := checkpoint.Save(dir, hub.CaptureState())
	if err != nil {
		t.Fatal(err)
	}
	hub.Stop()

	raw, err := os.ReadFile(filepath.Join(ckpt, "fleet"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-5] ^= 0x10
	if err := os.WriteFile(filepath.Join(ckpt, "fleet"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := RestoreHubWal(dir, "", func(RestoredSession) (Source, error) {
		return &scriptSource{}, nil
	}); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("corrupted restore returned %v, want ErrCorrupt", err)
	}
	if _, _, _, err := RestoreHubWal(t.TempDir(), "", func(RestoredSession) (Source, error) {
		return &scriptSource{}, nil
	}); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("empty dir returned %v, want ErrNoCheckpoint", err)
	}
}

// TestCheckpointUnderLoad is the -race workout for copy-on-snapshot: paced
// shard loops serve board-fed sessions while checkpoints, snapshots,
// admissions and evictions race against them.
func TestCheckpointUnderLoad(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 2, MaxSessionsPerShard: 32, TickHz: 200, LatencyWindow: 64}, reg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := hub.Admit(boardSession(t, p, 0, uint64(i)+1)); err != nil {
			t.Fatal(err)
		}
	}
	hub.Start()
	j := testJournal(t, hub)
	dir := t.TempDir()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := j.Checkpoint(dir); err != nil {
					t.Errorf("checkpoint %d/%d: %v", w, i, err)
					return
				}
				_ = hub.Snapshot()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			id, err := hub.Admit(boardSession(t, p, 0, uint64(100+i)))
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if err := hub.Evict(id); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	wg.Wait()
	hub.Stop()

	// The last published checkpoint must be loadable and restorable.
	if _, _, _, err := RestoreHubWal(dir, "", func(RestoredSession) (Source, error) {
		return &scriptSource{}, nil
	}); err != nil {
		t.Fatalf("checkpoint taken under load does not restore: %v", err)
	}
}

// TestPendingSourceSplit pins pendingSource's split of one ReadInto between
// the replayed samples and the live source behind them: replay first, in
// order, and the live source only for what the replay cannot cover. Seqs
// 0–2 are the replay, 10–13 the live stream.
func TestPendingSourceSplit(t *testing.T) {
	seqs := func(from, to uint64) []stream.Sample {
		var out []stream.Sample
		for s := from; s < to; s++ {
			out = append(out, stream.Sample{Seq: s})
		}
		return out
	}
	cases := []struct {
		name    string
		max     int
		want    []uint64
		pending int // PendingLen after the read
	}{
		{"max below pending", 2, []uint64{0, 1}, 5},
		{"max equals pending", 3, []uint64{0, 1, 2}, 4},
		{"max spills into live", 5, []uint64{0, 1, 2, 10, 11}, 2},
		{"max zero drains both", 0, []uint64{0, 1, 2, 10, 11, 12, 13}, 0},
		{"max negative drains both", -1, []uint64{0, 1, 2, 10, 11, 12, 13}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ring := stream.NewRing(16)
			for _, s := range seqs(10, 14) {
				ring.Push(s)
			}
			p := &pendingSource{pending: seqs(0, 3), src: RingSource{Ring: ring}}
			if got := p.PendingLen(); got != 7 {
				t.Fatalf("PendingLen before read = %d, want 7", got)
			}
			dst := []stream.Sample{{Seq: 99}} // ReadInto appends after what dst holds
			dst = p.ReadInto(dst, tc.max)
			got := make([]uint64, 0, len(dst))
			for _, s := range dst {
				got = append(got, s.Seq)
			}
			if want := append([]uint64{99}, tc.want...); !reflect.DeepEqual(got, want) {
				t.Fatalf("ReadInto(max=%d) seqs %v, want %v", tc.max, got, want)
			}
			if n := p.PendingLen(); n != tc.pending {
				t.Fatalf("PendingLen after read = %d, want %d", n, tc.pending)
			}
		})
	}
}
