package serve

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"cognitivearm/internal/board"
	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/stream"
	"cognitivearm/internal/wal"
)

// captureSessionLocked deep-copies one session's complete resumable state —
// the capture's reference: what viewSessionLocked encodes straight from the
// live session must be byte for byte the encoding of this copy. Callers hold
// the owning shard's lock.
func captureSessionLocked(shardID int, sess *session) checkpoint.SessionRecord {
	rec := checkpoint.SessionRecord{
		ID:           uint64(sess.id),
		Shard:        shardID,
		Ver:          sess.ver,
		ModelKey:     sess.cfg.ModelKey,
		Tag:          sess.cfg.Tag,
		Channels:     sess.cfg.Channels,
		SampleRateHz: sess.cfg.SampleRateHz,
		NormMean:     append([]float64(nil), sess.cfg.Norm.Mean...),
		NormStd:      append([]float64(nil), sess.cfg.Norm.Std...),
		SampleAcc:    sess.sampleAcc,
		Fed:          sess.fed,
		IdleTicks:    sess.idleTicks,
		Decoded:      sess.decoded,
		Agreed:       sess.agreed,
		Actions:      append([]uint64(nil), sess.actions[:]...),
		Windower:     sess.win.State(),
		Debounce:     sess.debounce.State(),
	}
	if snap, ok := sess.cfg.Source.(PendingSnapshotter); ok {
		for _, smp := range snap.SnapshotPending() {
			rec.Pending = append(rec.Pending, checkpoint.PendingSample{
				Seq: smp.Seq, Timestamp: smp.Timestamp, Values: smp.Values,
			})
		}
	}
	return rec
}

// oddFloats are the values a careless copy loses: NaN payloads, ±Inf, −0, a
// denormal.
var oddFloats = []float64{
	math.Float64frombits(0x7ff8000000000123),
	math.Float64frombits(0xfff8dead0000beef),
	math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1),
	math.SmallestNonzeroFloat64,
}

// TestCaptureEncodesDeepCopy is the capture's differential test: at every
// fill level of the rolling window from empty to twice round, with NaN
// payloads, ±Inf and −0 in the window and the filter state, pending samples
// buffered in one session's source and none in the other's, the records
// CaptureDeltaInto encodes straight from live state equal, byte for byte and
// in order, the encodings of captureSessionLocked's deep copies — and
// ExtractSession hands back exactly that record.
func TestCaptureEncodesDeepCopy(t *testing.T) {
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 8}, stubRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	ring := stream.NewRing(8)
	ring.Push(stream.Sample{Seq: 41, Timestamp: math.Copysign(0, -1), Values: oddFloats})
	ring.Push(stream.Sample{Seq: 42, Timestamp: 0.25})
	norm := dataset.Stats{Mean: []float64{1, -2, math.Inf(1)}, Std: []float64{2, 0}}
	cfgs := []SessionConfig{
		{ModelKey: "stub", Source: RingSource{Ring: ring}, Norm: norm, Tag: "pending"},
		{ModelKey: "stub", Source: &scriptSource{}, Tag: "none pending"},
	}
	sh := hub.shards[0]
	var sessions []*session
	for _, cfg := range cfgs {
		id, err := hub.Admit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sh.sessions[id])
	}
	rows := sessions[0].win.Size()
	for i, sess := range sessions {
		st := sess.win.State()
		for j := range st.Window {
			st.Window[j] = oddFloats[(i+j)%len(oddFloats)]
		}
		st.Filter[1][0], st.Filter[2][3] = oddFloats[0], oddFloats[4] // a NaN channel and a −0
		if err := sess.win.SetState(st); err != nil {
			t.Fatal(err)
		}
	}

	var d Delta
	for fill := 0; fill <= 2*rows; fill++ {
		sh.mu.Lock()
		var want [][]byte
		for _, sess := range sessions {
			rec := captureSessionLocked(sh.id, sess)
			want = append(want, checkpoint.AppendSessionRecord(nil, &rec))
		}
		sh.mu.Unlock()
		hub.CaptureDeltaInto(nil, &d)
		if d.Records.Len() != len(want) {
			t.Fatalf("fill %d: captured %d records, want %d", fill, d.Records.Len(), len(want))
		}
		for i := range want {
			if got := d.Records.At(i); !bytes.Equal(got, want[i]) {
				t.Fatalf("fill %d, session %d: capture encoded %d bytes that differ from the deep copy's %d", fill, i, len(got), len(want[i]))
			}
		}
		// One more row, label and tick of scheduler drift per session; every
		// fifth row carries odd values of its own.
		sh.mu.Lock()
		for i, sess := range sessions {
			row := make([]float64, sess.cfg.Channels)
			for ch := range row {
				row[ch] = float64(fill*ch) - 3.5
			}
			if fill%5 == 0 {
				row[fill%len(row)] = oddFloats[(fill+i)%len(oddFloats)]
			}
			sess.win.Push(row)
			sess.observe(eeg.Action(fill % eeg.NumActions))
			sess.ver++
			sess.sampleAcc += 0.125
			sess.idleTicks = fill % 3
		}
		sh.mu.Unlock()
	}

	for i, sess := range sessions {
		sh.mu.Lock()
		want := captureSessionLocked(sh.id, sess)
		sh.mu.Unlock()
		got, ok := hub.ExtractSession(sess.id)
		if !ok {
			t.Fatalf("session %d: extract failed", i)
		}
		if !bytes.Equal(checkpoint.AppendSessionRecord(nil, got), checkpoint.AppendSessionRecord(nil, &want)) {
			t.Fatalf("session %d: extracted record differs from the deep copy", i)
		}
	}
}

// TestCaptureAllocFree gates the capture's cost: once the arena has held the
// fleet, sweeping a shard and encoding every session — none with pending
// samples — allocates nothing, whatever the fleet size.
func TestCaptureAllocFree(t *testing.T) {
	reg, p := testFleet(t)
	const sessions = 8
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: sessions, TickHz: 15, LatencyWindow: 32}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	for i := 0; i < sessions; i++ {
		b := board.NewSyntheticCyton(eeg.NewSubject(0), uint64(i)*7+3, false)
		if err := b.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: b, Norm: p.NormFor(0), Tag: "board"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		hub.TickAll()
	}
	var d Delta
	sweep := func() {
		d.Records.Reset()
		d.Manifest.Refs = d.Manifest.Refs[:0]
		hub.shards[0].captureInto(nil, &d)
	}
	sweep() // warm the arena
	if avg := testing.AllocsPerRun(50, sweep); avg != 0 {
		t.Fatalf("capturing %d sessions allocates %.1f times per sweep, want 0", sessions, avg)
	}
	if d.Records.Len() != sessions {
		t.Fatalf("sweep encoded %d records, want %d", d.Records.Len(), sessions)
	}
}

// BenchmarkJournalFlush times one journal flush of a 100-session fleet after
// the 30 ticks (cogarmd's 2 s cadence) that dirty every session; allocs/op is
// the flush's alone.
func BenchmarkJournalFlush(b *testing.B) {
	reg, p := testFleet(b)
	hub, err := NewHub(Config{Shards: 2, MaxSessionsPerShard: 50, TickHz: 15, LatencyWindow: 32}, reg)
	if err != nil {
		b.Fatal(err)
	}
	defer hub.Stop()
	for i := 0; i < 100; i++ {
		if _, err := hub.Admit(boardSession(b, p, 0, uint64(i)*7+3)); err != nil {
			b.Fatal(err)
		}
	}
	j, _, err := NewJournal(hub, wal.Options{Dir: b.TempDir(), NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	flush := func() {
		if _, _, err := j.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		hub.TickAll()
	}
	flush() // the full base
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		for i := 0; i < 30; i++ {
			hub.TickAll()
		}
		b.StartTimer()
		flush()
	}
}

// recoveryTail writes the recovery the repo benchmark's epilogue times: a
// 100-session fleet checkpointed, then seven flushed 30-tick intervals in the
// WAL past the checkpoint. As in the epilogue, each timed recovery starts from
// a collected heap: a restarted process has no garbage of an earlier one.
func recoveryTail(b *testing.B) (ckptRoot, walDir string) {
	reg, p := testFleet(b)
	hub, err := NewHub(Config{Shards: 2, MaxSessionsPerShard: 50, TickHz: 15, LatencyWindow: 32}, reg)
	if err != nil {
		b.Fatal(err)
	}
	defer hub.Stop()
	for i := 0; i < 100; i++ {
		if _, err := hub.Admit(boardSession(b, p, 0, uint64(i)*7+3)); err != nil {
			b.Fatal(err)
		}
	}
	ckptRoot, walDir = b.TempDir(), b.TempDir()
	j, _, err := NewJournal(hub, wal.Options{Dir: walDir, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	interval := func() {
		for i := 0; i < 30; i++ {
			hub.TickAll()
		}
		if _, _, err := j.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	interval() // the full base
	if _, err := j.Checkpoint(ckptRoot); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		interval()
	}
	return ckptRoot, walDir
}

// BenchmarkReplayWAL times the WAL half of a recovery: scanning, verifying
// and folding the tail of recoveryTail over its freshly loaded checkpoint.
func BenchmarkReplayWAL(b *testing.B) {
	ckptRoot, walDir := recoveryTail(b)
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		base, _, err := checkpoint.LoadLatest(ckptRoot)
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.StartTimer()
		if state, applied, err := ReplayWAL(walDir, base); err != nil || applied == 0 || len(state.Sessions) != 100 {
			b.Fatalf("replay: %d entries, err %v", applied, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/op")
}

// BenchmarkRestoreHubWal times a whole recovery of recoveryTail: checkpoint
// load and WAL scan side by side, the fold, and the restored hub.
func BenchmarkRestoreHubWal(b *testing.B) {
	ckptRoot, walDir := recoveryTail(b)
	source := func(RestoredSession) (Source, error) { return RingSource{Ring: stream.NewRing(8)}, nil }
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		hub, _, applied, err := RestoreHubWal(ckptRoot, walDir, source)
		if err != nil || applied == 0 || hub.Sessions() != 100 {
			b.Fatalf("restore: %d entries, err %v", applied, err)
		}
		b.StopTimer()
		hub.Stop()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/op")
}
