package serve

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/stream"
	"cognitivearm/internal/wal"
)

// journalFleet builds the standard two-session victim/reference pair used by
// the WAL recovery tests: one script-fed session, one ring-fed session with
// the whole stream buffered upfront (so a kill always leaves pending
// samples in flight).
func journalFleet(t *testing.T, hub *Hub, streamA, streamB []stream.Sample) (ids []SessionID, script *scriptSource) {
	t.Helper()
	_, p := testFleet(t)
	script = &scriptSource{samples: streamA}
	ring := stream.NewRing(len(streamB) + 1)
	for _, smp := range streamB {
		ring.Push(smp)
	}
	for _, src := range []Source{script, RingSource{Ring: ring}} {
		id, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: src, Norm: p.NormFor(0), Tag: "s"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids, script
}

// journalSource rebinds sources for a hub restored from WAL replay: the
// script session resumes at the position the killed process had consumed up
// to its last flush; the ring session's remainder rides in as pending
// records, so its new ring is empty.
func journalSource(t *testing.T, streamA []stream.Sample, consumed int) SourceFactory {
	byID := map[int]bool{}
	return func(rec RestoredSession) (Source, error) {
		t.Helper()
		if byID[int(rec.ID)] {
			t.Fatalf("session %d restored twice", rec.ID)
		}
		byID[int(rec.ID)] = true
		if int(rec.ID) == 1 {
			return &scriptSource{samples: streamA[consumed:]}, nil
		}
		return RingSource{Ring: stream.NewRing(8)}, nil
	}
}

// TestJournalWalOnlyRecoveryBitwise is the acceptance test for the WAL as a
// standalone durability layer: a hub that never wrote a checkpoint, killed
// after its last journal flush (losing the post-flush ticks), must restore
// from WAL replay alone and then emit exactly the per-tick decode sequence
// the uninterrupted reference hub emits from the flush boundary on.
func TestJournalWalOnlyRecoveryBitwise(t *testing.T) {
	reg, _ := testFleet(t)
	cfg := Config{Shards: 2, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 32}
	const (
		totalSamples = 700
		totalTicks   = 60
		flushTick    = 20 // journal flush boundary: everything after is lost
		killTick     = 27
	)
	streamA := scriptedEEG(0, 41, totalSamples)
	streamB := scriptedEEG(0, 97, totalSamples)

	ref, err := NewHub(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()
	refIDs, _ := journalFleet(t, ref, streamA, streamB)
	var want []SessionStats
	for i := 0; i < totalTicks; i++ {
		want = append(want, tickStats(t, ref, refIDs)...)
	}

	victim, err := NewHub(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	ids, script := journalFleet(t, victim, streamA, streamB)
	walDir := t.TempDir()
	j, info, err := NewJournal(victim, wal.Options{Dir: walDir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Segments != 0 {
		t.Fatalf("fresh WAL recovered %d segments", info.Segments)
	}
	for i := 0; i < flushTick; i++ {
		victim.TickAll()
	}
	if _, last, err := j.Flush(); err != nil || last == 0 {
		t.Fatalf("flush: last=%d err=%v", last, err)
	}
	consumed := script.pos
	// Post-flush ticks advance the victim beyond what the WAL holds; the
	// kill throws them away, and recovery must land exactly on the flush.
	for i := flushTick; i < killTick; i++ {
		victim.TickAll()
	}
	victim.Stop() // the "kill": journal never closed, WAL never rotated

	state, applied, err := ReplayWAL(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if state == nil || applied == 0 {
		t.Fatalf("replay applied %d entries, state=%v", applied, state)
	}
	requirePending(t, state, ids[1])
	restored, err := RestoreHub(state, journalSource(t, streamA, consumed))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Stop()
	if restored.Sessions() != 2 {
		t.Fatalf("restored %d sessions, want 2", restored.Sessions())
	}
	var got []SessionStats
	for i := flushTick; i < totalTicks; i++ {
		got = append(got, tickStats(t, restored, ids)...)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[flushTick*len(ids)+i]) {
			t.Fatalf("tick %d session %d diverged after WAL-only restore:\n got %+v\nwant %+v",
				flushTick+i/len(ids), i%len(ids), got[i], want[flushTick*len(ids)+i])
		}
	}

	// A fleet that has gone silent has no dirty record to journal, yet every
	// tick still moves its sessions' sample accumulators and idle clocks. The
	// flush must journal that view, or recovery rewinds the idle clocks by
	// the whole silent period.
	t.Run("silent fleet", func(t *testing.T) {
		victim, err := NewHub(cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
		journalFleet(t, victim, streamA[:160], nil)
		walDir := t.TempDir()
		j, _, err := NewJournal(victim, wal.Options{Dir: walDir, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ { // the script runs dry at tick ~20
			victim.TickAll()
		}
		if _, _, err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ { // silent ticks: no ingest, no ver bump
			victim.TickAll()
		}
		if _, _, err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		killed := victim.CaptureState().Sessions
		victim.Stop()

		state, _, err := ReplayWAL(walDir, nil)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreHub(state, journalSource(t, streamA, len(streamA)))
		if err != nil {
			t.Fatal(err)
		}
		defer restored.Stop()
		got := restored.CaptureState().Sessions
		if len(got) != len(killed) {
			t.Fatalf("restored %d sessions, want %d", len(got), len(killed))
		}
		for i := range killed {
			if killed[i].IdleTicks == 0 {
				t.Fatalf("session %d is not idle at the kill; the case no longer covers a silent fleet", killed[i].ID)
			}
			if got[i].SampleAcc != killed[i].SampleAcc || got[i].IdleTicks != killed[i].IdleTicks {
				t.Fatalf("session %d restored SampleAcc %v IdleTicks %d, the victim had %v and %d",
					got[i].ID, got[i].SampleAcc, got[i].IdleTicks, killed[i].SampleAcc, killed[i].IdleTicks)
			}
		}
	})
}

// TestJournalCheckpointFencesAndTruncates drives the full durability
// pipeline: flush → checkpoint (snapshot + WAL truncation) → more flushes →
// kill. Recovery composes the checkpoint base with the surviving WAL tail
// and must resume bitwise-identically from the last flush. The checkpoint
// must also have compacted the WAL (truncated the covered segments) and
// fenced its manifest so replay skips what the checkpoint already holds.
func TestJournalCheckpointFencesAndTruncates(t *testing.T) {
	reg, _ := testFleet(t)
	cfg := Config{Shards: 2, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 32}
	const (
		totalSamples = 700
		totalTicks   = 60
		ckptTick     = 15
		flushTick    = 30
		killTick     = 36
	)
	streamA := scriptedEEG(0, 41, totalSamples)
	streamB := scriptedEEG(0, 97, totalSamples)

	ref, err := NewHub(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()
	refIDs, _ := journalFleet(t, ref, streamA, streamB)
	var want []SessionStats
	for i := 0; i < totalTicks; i++ {
		want = append(want, tickStats(t, ref, refIDs)...)
	}

	victim, err := NewHub(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	ids, script := journalFleet(t, victim, streamA, streamB)
	walDir, ckptRoot := t.TempDir(), t.TempDir()
	// The checkpoint's own Rotate finalizes the segment its flushes filled,
	// so truncation behind the fence has a segment to actually remove.
	j, _, err := NewJournal(victim, wal.Options{Dir: walDir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ckptTick; i++ {
		victim.TickAll()
	}
	if _, _, err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Checkpoint(ckptRoot); err != nil {
		t.Fatal(err)
	}
	fence := j.Log().LastSealed()
	if fence == 0 {
		t.Fatal("checkpoint left a zero WAL fence")
	}
	for i := ckptTick; i < flushTick; i++ {
		victim.TickAll()
	}
	if _, _, err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	consumed := script.pos
	for i := flushTick; i < killTick; i++ {
		victim.TickAll()
	}
	victim.Stop() // kill

	restored, dir, applied, err := RestoreHubWal(ckptRoot, walDir, journalSource(t, streamA, consumed))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Stop()
	if dir == "" {
		t.Fatal("restore ignored the checkpoint base")
	}
	if applied == 0 {
		t.Fatal("restore applied no WAL entries over the checkpoint")
	}
	var got []SessionStats
	for i := flushTick; i < totalTicks; i++ {
		got = append(got, tickStats(t, restored, ids)...)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[flushTick*len(ids)+i]) {
			t.Fatalf("tick %d session %d diverged after checkpoint+WAL restore:\n got %+v\nwant %+v",
				flushTick+i/len(ids), i%len(ids), got[i], want[flushTick*len(ids)+i])
		}
	}
	// The checkpoint compacted the WAL: every entry at or below the fence
	// lives only in the checkpoint now, so replay must start past it.
	minSeq := ^uint64(0)
	if err := wal.Dump(walDir, func(e wal.Entry) error {
		if e.Seq < minSeq {
			minSeq = e.Seq
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if minSeq <= fence {
		t.Fatalf("WAL still holds entry %d at or below the checkpoint fence %d", minSeq, fence)
	}
}

// TestJournalTornTailRecoversToLastFlush truncates the WAL at raw byte
// offsets — the serve-level stand-in for kill -9 mid-write — and requires
// recovery to land exactly on the last sealed flush, never on a partial one.
func TestJournalTornTailRecoversToLastFlush(t *testing.T) {
	reg, _ := testFleet(t)
	cfg := Config{Shards: 1, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 16}
	streamA := scriptedEEG(0, 41, 400)
	streamB := scriptedEEG(0, 97, 400)

	hub, err := NewHub(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	_, script := journalFleet(t, hub, streamA, streamB)
	walDir := t.TempDir()
	j, _, err := NewJournal(hub, wal.Options{Dir: walDir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		hub.TickAll()
	}
	if _, _, err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	consumed := script.pos
	sealedState, _, err := ReplayWAL(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		hub.TickAll()
	}
	if _, _, err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	hub.Stop()

	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, err %v", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Find where the first flush's seal ends by replaying frame lengths.
	var sealedEnd int64
	func() {
		off := int64(8)
		for off < int64(len(full)) {
			plen := int64(uint32(full[off+1]) | uint32(full[off+2])<<8 | uint32(full[off+3])<<16 | uint32(full[off+4])<<24)
			end := off + 9 + plen
			if full[off] == 2 { // recSeal
				sealedEnd = end
				return
			}
			off = end
		}
	}()
	if sealedEnd == 0 {
		t.Fatal("no seal found in segment")
	}
	// Cut mid-way through the second flush's records: everything after the
	// first seal must be dropped, and the replayed state must equal the
	// state captured right after the first flush.
	cut := sealedEnd + (int64(len(full))-sealedEnd)/2
	if err := os.Truncate(segs[0], cut); err != nil {
		t.Fatal(err)
	}
	l, info, err := wal.Open(wal.Options{Dir: walDir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.TornSegment == "" || info.TruncatedBytes == 0 {
		t.Fatalf("recovery reported no truncation: %+v", info)
	}
	l.Close()
	state, _, err := ReplayWAL(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(state.Sessions, sealedState.Sessions) {
		t.Fatalf("torn-tail replay state diverged from the sealed flush:\n got %+v\nwant %+v",
			state.Sessions, sealedState.Sessions)
	}
	restored, err := RestoreHub(state, journalSource(t, streamA, consumed))
	if err != nil {
		t.Fatal(err)
	}
	restored.Stop()
}

// TestJournalAuditAndDecisionTrail: flushes journal the event ring (exactly
// once per event) and a decision summary per dirty session, all queryable
// from a cold Dump.
func TestJournalAuditAndDecisionTrail(t *testing.T) {
	reg, _ := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	ids, _ := journalFleet(t, hub, scriptedEEG(0, 41, 200), scriptedEEG(0, 97, 200))
	walDir := t.TempDir()
	j, _, err := NewJournal(hub, wal.Options{Dir: walDir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		hub.TickAll()
	}
	if _, _, err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		hub.TickAll()
	}
	if _, _, err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	decisions := map[uint64]int{}
	auditSeqs := map[uint64]int{}
	if err := wal.Dump(walDir, func(e wal.Entry) error {
		switch e.Kind {
		case wal.KindDecision:
			d, err := wal.DecodeDecision(e.Data)
			if err != nil {
				return err
			}
			decisions[d.Session]++
		case wal.KindAudit:
			ev, err := wal.DecodeEvent(e.Data)
			if err != nil {
				return err
			}
			auditSeqs[ev.Seq]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if decisions[uint64(id)] == 0 {
			t.Fatalf("no decision entries journaled for session %d", id)
		}
	}
	for seq, n := range auditSeqs {
		if n != 1 {
			t.Fatalf("audit event %d journaled %d times, want exactly once", seq, n)
		}
	}
	if _, err := wal.Verify(walDir); err != nil {
		t.Fatalf("closed journal fails verification: %v", err)
	}
}

// TestJournalFlushIsOneBatch: a flush is one sealed batch however large —
// here a 100-session board fleet whose 30-tick flushes each journal more than
// a mebibyte — and its root is the log's last root. Flushes run until the
// active segment rolls over, and every flush's entries and seal sit in one
// segment.
func TestJournalFlushIsOneBatch(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 2, MaxSessionsPerShard: 50, TickHz: 15, LatencyWindow: 32}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	for i := 0; i < 100; i++ {
		if _, err := hub.Admit(boardSession(t, p, 0, uint64(i)*7+3)); err != nil {
			t.Fatal(err)
		}
	}
	walDir := t.TempDir()
	j, _, err := NewJournal(hub, wal.Options{Dir: walDir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	type flush struct{ first, last uint64 }
	var flushes []flush
	for rolled := false; !rolled; {
		for i := 0; i < 30; i++ {
			hub.TickAll()
		}
		before := j.Status()
		root, last, err := j.Flush()
		if err != nil {
			t.Fatal(err)
		}
		after := j.Status()
		flushes = append(flushes, flush{before.SealedSeq + 1, last})
		if hex.EncodeToString(root[:]) != after.LastRoot {
			t.Fatalf("flush %d returned root %x, the log's last root is %s", len(flushes), root, after.LastRoot)
		}
		// A seal that fills the segment rolls it over: the batch went into
		// the segment just finalized, and the new one holds none yet.
		rolled = after.Segments != before.Segments
		if !rolled && after.Batches != before.Batches+1 ||
			rolled && (after.Segments != before.Segments+1 || after.Batches != 0) {
			t.Fatalf("flush %d took the log from %d batches in %d segments to %d in %d, want one batch",
				len(flushes), before.Batches, before.Segments, after.Batches, after.Segments)
		}
		if len(flushes) > 20 {
			t.Fatal("20 flushes never rolled the segment over")
		}
	}
	if len(flushes) < 2 {
		t.Fatalf("the first flush rolled the segment over; the fleet is too large to see a batch per flush")
	}

	segs := map[uint64]string{} // each flush's segment, by its first entry
	sizes := make([]int, len(flushes))
	f := 0
	if err := wal.Dump(walDir, func(e wal.Entry) error {
		for f < len(flushes) && e.Seq > flushes[f].last {
			f++
		}
		if f == len(flushes) || e.Seq < flushes[f].first {
			t.Fatalf("entry %d belongs to no flush", e.Seq)
		}
		if seg, ok := segs[flushes[f].first]; !ok {
			segs[flushes[f].first] = e.Segment
		} else if seg != e.Segment {
			t.Fatalf("flush %d spans segments %s and %s", f+1, seg, e.Segment)
		}
		sizes[f] += len(e.Data)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, n := range sizes[1:] {
		if n <= 1<<20 {
			t.Fatalf("flush %d journaled %d bytes, want more than 1 MiB", i+2, n)
		}
	}
	reports, err := wal.Verify(walDir)
	if err != nil {
		t.Fatal(err)
	}
	sealed := 0
	for _, r := range reports {
		sealed += r.Batches
	}
	if sealed != len(flushes) {
		t.Fatalf("%d flushes sealed %d batches, want one each", len(flushes), sealed)
	}
}

// TestJournalEmptyFlushAppendsNothing: a quiet interval (no dirty sessions,
// no departures) must not grow the WAL. Sessions are script-fed with nothing
// buffered — a session with pending samples counts as dirty by design.
func TestJournalEmptyFlushAppendsNothing(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	for _, seed := range []uint64{41, 97} {
		src := &scriptSource{samples: scriptedEEG(0, seed, 50)}
		if _, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: src, Norm: p.NormFor(0), Tag: "s"}); err != nil {
			t.Fatal(err)
		}
	}
	j, _, err := NewJournal(hub, wal.Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	hub.TickAll()
	if _, _, err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	before := j.Log().LastSealed()
	// No ticks, and the first flush drained the ring: nothing to journal.
	if _, last, err := j.Flush(); err != nil || last != before {
		t.Fatalf("idle flush moved the sealed frontier %d -> %d (err %v)", before, last, err)
	}
}

// TestJournalCrashMidFlushRecoversToPreviousFlush is the regression test for
// the mid-flush crash: the log once sealed inline whenever a batch outgrew a
// size bound, so a process killed part-way through a flush left sealed
// session records of that flush with no refs entry behind them — and WALs
// written then still hold such split flushes. Replay must treat the refs
// entry — not the seal — as the commit point, drop the orphaned records, and
// restore the fleet bitwise at the previous flush.
func TestJournalCrashMidFlushRecoversToPreviousFlush(t *testing.T) {
	reg, _ := testFleet(t)
	cfg := Config{Shards: 2, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 32}
	const (
		totalSamples = 700
		totalTicks   = 60
		flushTick    = 20
		killTick     = 25
	)
	streamA := scriptedEEG(0, 41, totalSamples)
	streamB := scriptedEEG(0, 97, totalSamples)

	ref, err := NewHub(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()
	refIDs, _ := journalFleet(t, ref, streamA, streamB)
	var want []SessionStats
	for i := 0; i < totalTicks; i++ {
		want = append(want, tickStats(t, ref, refIDs)...)
	}

	victim, err := NewHub(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	ids, script := journalFleet(t, victim, streamA, streamB)
	walDir := t.TempDir()
	j, _, err := NewJournal(victim, wal.Options{Dir: walDir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < flushTick; i++ {
		victim.TickAll()
	}
	if _, _, err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	consumed := script.pos
	flushed, flushedApplied, err := ReplayWAL(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := flushTick; i < killTick; i++ {
		victim.TickAll()
	}
	// The next flush gets as far as its first session record, sealed as an
	// older log's size bound sealed it, then the process dies: no decision
	// entry, no refs, no final seal.
	delta := captureDelta(victim, j.lastRefs)
	if len(delta.Sessions) == 0 {
		t.Fatal("no dirty session to journal after the post-flush ticks")
	}
	sealedBefore := j.log.LastSealed()
	if _, err := j.log.Append(wal.KindSession, checkpoint.AppendSessionRecord(nil, &delta.Sessions[0])); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := j.log.Seal(); err != nil {
		t.Fatal(err)
	}
	if j.log.LastSealed() == sealedBefore {
		t.Fatal("the orphaned session record was not sealed; the test no longer reproduces the crash")
	}
	victim.Stop()

	state, applied, err := ReplayWAL(walDir, nil)
	if err != nil {
		t.Fatalf("replay over an incomplete flush: %v", err)
	}
	if applied != flushedApplied {
		t.Fatalf("replay counted %d applied entries, want the %d of the complete flush", applied, flushedApplied)
	}
	if !reflect.DeepEqual(state.Sessions, flushed.Sessions) {
		t.Fatalf("replay state moved past the last complete flush:\n got %+v\nwant %+v", state.Sessions, flushed.Sessions)
	}
	restored, _, _, err := RestoreHubWal(t.TempDir(), walDir, journalSource(t, streamA, consumed))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Stop()
	var got []SessionStats
	for i := flushTick; i < totalTicks; i++ {
		got = append(got, tickStats(t, restored, ids)...)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[flushTick*len(ids)+i]) {
			t.Fatalf("tick %d session %d diverged after mid-flush-crash restore:\n got %+v\nwant %+v",
				flushTick+i/len(ids), i%len(ids), got[i], want[flushTick*len(ids)+i])
		}
	}
}

// TestPreCodecFilesAreRefused: checkpoint files and WAL segments written
// before the session-record codec carry format version 1 in their headers and
// must be refused outright — their session payloads are gob, which the new
// decoder would otherwise be asked to parse.
func TestPreCodecFilesAreRefused(t *testing.T) {
	reg, _ := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	journalFleet(t, hub, scriptedEEG(0, 41, 200), scriptedEEG(0, 97, 200))
	walDir, ckptRoot := t.TempDir(), t.TempDir()
	j, _, err := NewJournal(hub, wal.Options{Dir: walDir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		hub.TickAll()
	}
	if _, err := j.Checkpoint(ckptRoot); err != nil {
		t.Fatal(err)
	}
	hub.TickAll()
	if _, _, err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := RestoreHubWal(ckptRoot, walDir, journalSource(t, nil, 0)); err != nil {
		t.Fatalf("current-version files do not restore: %v", err)
	}

	// Both headers are magic[4] | version u16 LE | kind u16 LE.
	setV1 := func(pattern string) {
		t.Helper()
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			t.Fatalf("glob %s: %v, err %v", pattern, paths, err)
		}
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			raw[4], raw[5] = 1, 0
			if err := os.WriteFile(p, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	setV1(filepath.Join(walDir, "wal-*.seg"))
	if _, _, err := ReplayWAL(walDir, nil); !errors.Is(err, wal.ErrVersion) {
		t.Fatalf("replay of a v1 WAL segment: %v, want wal.ErrVersion", err)
	}
	if _, _, err := wal.Open(wal.Options{Dir: walDir, NoSync: true}); !errors.Is(err, wal.ErrVersion) {
		t.Fatalf("open of a v1 WAL segment: %v, want wal.ErrVersion", err)
	}
	setV1(filepath.Join(ckptRoot, "ckpt-*", "*"))
	if _, _, err := checkpoint.LoadLatest(ckptRoot); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("load of a v1 checkpoint: %v, want checkpoint.ErrVersion", err)
	}
}

// TestParentChainRootIsRefused: ../checkpoint/testdata/parent_chain is a root
// the commit before directory format 3 wrote, its newest checkpoint an
// incremental one holding one of the fleet's three session records, and
// parent_dir3 one the last release before the fleet file wrote. A restore
// over either must come back with the format error, or with the fleet of a
// WAL that is complete on its own — never with a hub built from that root. A
// WAL tail that needs the refused root as its base must report the format
// error too, not only the tail's missing records.
func TestParentChainRootIsRefused(t *testing.T) {
	const oldRoot = "../checkpoint/testdata/parent_chain"
	factory := func(RestoredSession) (Source, error) { return &scriptSource{}, nil }
	for _, root := range []string{oldRoot, "../checkpoint/testdata/parent_dir3"} {
		if hub, _, _, err := RestoreHubWal(root, "", factory); !errors.Is(err, checkpoint.ErrVersion) || hub != nil {
			t.Fatalf("RestoreHubWal over %s and no WAL: hub %v, err %v; want checkpoint.ErrVersion", root, hub, err)
		}
		if hub, _, _, err := RestoreHubWal(root, t.TempDir(), factory); !errors.Is(err, checkpoint.ErrVersion) || hub != nil {
			t.Fatalf("RestoreHubWal over %s and an empty WAL: hub %v, err %v; want checkpoint.ErrVersion", root, hub, err)
		}
	}

	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 4, TickHz: 15, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	journalFleet(t, hub, scriptedEEG(0, 41, 400), scriptedEEG(0, 97, 400))
	// A never-fed session: clean in every flush after the first, so a WAL
	// tail names it in its refs view without carrying its record.
	if _, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: &scriptSource{}, Norm: p.NormFor(0)}); err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	j, _, err := NewJournal(hub, wal.Options{Dir: walDir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	hub.TickAll()
	if _, _, err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	// The WAL holds this process's full first flush: WAL-only recovery.
	restored, dir, _, err := RestoreHubWal(oldRoot, walDir, factory)
	if err != nil {
		t.Fatalf("a complete WAL beside a refused root must still recover: %v", err)
	}
	if got := restored.Sessions(); dir != "" || got != hub.Sessions() {
		t.Fatalf("restored %d sessions from %q, want the WAL's %d and no checkpoint directory", got, dir, hub.Sessions())
	}
	restored.Stop()
	// After a checkpoint truncated it, the WAL is a tail that needs its
	// base — the upgrade case. Without a loadable base there is no fleet.
	if _, err := j.Checkpoint(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	hub.TickAll()
	if _, _, err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _, _, err := RestoreHubWal(oldRoot, walDir, factory); !errors.Is(err, checkpoint.ErrVersion) || got != nil {
		t.Fatalf("a WAL tail over a refused root: hub %v, err %v; want checkpoint.ErrVersion", got, err)
	}
}
