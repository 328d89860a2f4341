package dataset

import (
	"math"
	"testing"

	"cognitivearm/internal/eeg"
	"cognitivearm/internal/tensor"
)

func testRecording(t *testing.T, totalSec float64) Recording {
	t.Helper()
	return Collect(eeg.NewSubject(0), 0, ShortProtocol(totalSec), 42)
}

func TestCollectStructure(t *testing.T) {
	rec := testRecording(t, 24)
	if len(rec.Signal) != eeg.NumChannels {
		t.Fatalf("channels %d", len(rec.Signal))
	}
	wantSamples := int(24 * eeg.SampleRate)
	if len(rec.Signal[0]) != wantSamples {
		t.Fatalf("samples %d want %d", len(rec.Signal[0]), wantSamples)
	}
	if len(rec.Cues) == 0 {
		t.Fatal("no cues scheduled")
	}
	// Cues alternate task/idle and tile the timeline.
	var cursor float64
	for i, c := range rec.Cues {
		if math.Abs(c.TimeSec-cursor) > 1e-9 {
			t.Fatalf("cue %d at %v, expected %v", i, c.TimeSec, cursor)
		}
		cursor += c.Duration
		if i%2 == 0 && c.Action == eeg.Idle {
			t.Fatalf("cue %d should be a task, got idle", i)
		}
		if i%2 == 1 && c.Action != eeg.Idle {
			t.Fatalf("cue %d should be idle, got %v", i, c.Action)
		}
	}
	if math.Abs(cursor-24) > 1e-6 {
		t.Fatalf("cues cover %v s of 24", cursor)
	}
}

func TestCollectDeterministic(t *testing.T) {
	a := Collect(eeg.NewSubject(1), 0, ShortProtocol(8), 7)
	b := Collect(eeg.NewSubject(1), 0, ShortProtocol(8), 7)
	for c := range a.Signal {
		for i := range a.Signal[c] {
			if a.Signal[c][i] != b.Signal[c][i] {
				t.Fatal("same seed must reproduce the recording")
			}
		}
	}
	c := Collect(eeg.NewSubject(1), 1, ShortProtocol(8), 7)
	if a.Signal[0][100] == c.Signal[0][100] {
		t.Fatal("different sessions should differ")
	}
}

func TestPreprocessRemovesLine(t *testing.T) {
	rec := testRecording(t, 16)
	clean, err := Preprocess(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Signal) != len(rec.Signal) || len(clean.Signal[0]) != len(rec.Signal[0]) {
		t.Fatal("preprocess changed shape")
	}
	// Offsets must shrink dramatically at 50 Hz.
	var rawP, cleanP float64
	for i := range rec.Signal[7] {
		rawP += rec.Signal[7][i] * rec.Signal[7][i]
		cleanP += clean.Signal[7][i] * clean.Signal[7][i]
	}
	if cleanP >= rawP {
		t.Fatalf("preprocessing should reduce total power: %v -> %v", rawP, cleanP)
	}
}

func TestSegmentWindows(t *testing.T) {
	rec := testRecording(t, 16)
	cfg := DefaultSegment(100)
	ws, err := Segment(rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) == 0 {
		t.Fatal("no windows produced")
	}
	for _, w := range ws {
		if w.Data.Rows != 100 || w.Data.Cols != eeg.NumChannels {
			t.Fatalf("window shape %dx%d", w.Data.Rows, w.Data.Cols)
		}
		if w.SubjectID != 0 {
			t.Fatal("subject id lost")
		}
	}
	counts := ClassCounts(ws)
	for _, a := range eeg.Actions() {
		if counts[a] == 0 {
			t.Fatalf("class %v has no windows: %v", a, counts)
		}
	}
}

func TestSegmentRespectsTransition(t *testing.T) {
	rec := testRecording(t, 16)
	// A window may not start before cue + transition.
	cfg := SegmentConfig{Size: 100, Step: 25, TransitionSec: 1.0}
	ws, _ := Segment(rec, cfg)
	// Count: each 4 s task span has (4-1)s*125 - 100 usable start positions.
	spanSamples := int(3 * eeg.SampleRate)
	perSpan := (spanSamples-100)/25 + 1
	if perSpan <= 0 {
		t.Skip("config too tight")
	}
	nSpans := len(rec.Cues)
	if len(ws) > nSpans*perSpan {
		t.Fatalf("too many windows: %d > %d", len(ws), nSpans*perSpan)
	}
}

func TestSegmentErrors(t *testing.T) {
	rec := testRecording(t, 8)
	if _, err := Segment(rec, SegmentConfig{Size: 0, Step: 25}); err == nil {
		t.Fatal("size 0 should error")
	}
	if _, err := Segment(rec, SegmentConfig{Size: 100, Step: 0}); err == nil {
		t.Fatal("step 0 should error")
	}
	if _, err := Segment(Recording{}, DefaultSegment(100)); err == nil {
		t.Fatal("empty recording should error")
	}
}

func TestNormalizeZeroMeanUnitStd(t *testing.T) {
	rec := testRecording(t, 16)
	ws, _ := Segment(rec, DefaultSegment(100))
	st := ComputeStats(ws)
	Normalize(ws, st)
	post := ComputeStats(ws)
	for c := range post.Mean {
		if math.Abs(post.Mean[c]) > 1e-9 {
			t.Fatalf("channel %d mean %v after normalise", c, post.Mean[c])
		}
		if math.Abs(post.Std[c]-1) > 1e-9 {
			t.Fatalf("channel %d std %v after normalise", c, post.Std[c])
		}
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	st := ComputeStats(nil)
	if st.Mean != nil || st.Std != nil {
		t.Fatal("empty stats should be zero value")
	}
}

func TestBalanceEqualizesClasses(t *testing.T) {
	rec := testRecording(t, 32)
	ws, _ := Segment(rec, DefaultSegment(100))
	rng := tensor.NewRNG(1)
	bal := Balance(ws, rng)
	counts := ClassCounts(bal)
	first := -1
	for _, a := range eeg.Actions() {
		if first == -1 {
			first = counts[a]
		}
		if counts[a] != first {
			t.Fatalf("unbalanced after Balance: %v", counts)
		}
	}
	if first == 0 {
		t.Fatal("balance removed everything")
	}
}

func TestBalanceEmpty(t *testing.T) {
	if out := Balance(nil, tensor.NewRNG(1)); out != nil {
		t.Fatal("balancing nothing should give nothing")
	}
}

func TestLOSOFolds(t *testing.T) {
	bySubject := map[int][]Window{}
	for id := 0; id < 3; id++ {
		rec := Collect(eeg.NewSubject(id), 0, ShortProtocol(16), uint64(id))
		ws, _ := Segment(rec, DefaultSegment(100))
		bySubject[id] = ws
	}
	splits := LOSO(bySubject, tensor.NewRNG(2))
	if len(splits) != 3 {
		t.Fatalf("want 3 folds, got %d", len(splits))
	}
	seen := map[int]bool{}
	for _, sp := range splits {
		seen[sp.TestSubject] = true
		for _, w := range sp.Test {
			if w.SubjectID != sp.TestSubject {
				t.Fatal("test fold contaminated with training subject")
			}
		}
		for _, w := range append(append([]Window(nil), sp.Train...), sp.Val...) {
			if w.SubjectID == sp.TestSubject {
				t.Fatal("training fold contains the held-out subject")
			}
		}
		total := len(sp.Train) + len(sp.Val)
		if total == 0 {
			t.Fatal("empty training pool")
		}
		ratio := float64(len(sp.Train)) / float64(total)
		if ratio < 0.75 || ratio > 0.85 {
			t.Fatalf("train fraction %v, want ~0.8", ratio)
		}
	}
	for id := 0; id < 3; id++ {
		if !seen[id] {
			t.Fatalf("subject %d never held out", id)
		}
	}
}

func TestFeatureVector(t *testing.T) {
	m := tensor.New(4, 2)
	// channel 0: 1,2,3,4 ; channel 1: constant 5
	for i := 0; i < 4; i++ {
		m.Set(i, 0, float64(i+1))
		m.Set(i, 1, 5)
	}
	f := FeatureVector(Window{Data: m})
	if len(f) != 10 {
		t.Fatalf("feature length %d want 10", len(f))
	}
	// ch0: mean 2.5, min 1, max 4, var 1.25
	if math.Abs(f[0]-2.5) > 1e-12 || f[2] != 1 || f[3] != 4 || math.Abs(f[4]-1.25) > 1e-12 {
		t.Fatalf("ch0 features wrong: %v", f[:5])
	}
	// ch1: std 0, var 0
	if f[6] != 0 || f[9] != 0 {
		t.Fatalf("constant channel should have zero spread: %v", f[5:])
	}
}

func TestBuildPipeline(t *testing.T) {
	bySubject, stats, err := Build([]int{0, 1}, 1, ShortProtocol(16), 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(bySubject) != 2 || len(stats) != 2 {
		t.Fatalf("subjects %d, stats %d", len(bySubject), len(stats))
	}
	for id, ws := range bySubject {
		if len(ws) == 0 {
			t.Fatalf("subject %d empty", id)
		}
		if st := stats[id]; len(st.Mean) != eeg.NumChannels || len(st.Std) != eeg.NumChannels {
			t.Fatalf("subject %d stats %+v", id, st)
		}
		counts := ClassCounts(ws)
		if counts[eeg.Left] != counts[eeg.Right] || counts[eeg.Left] != counts[eeg.Idle] {
			t.Fatalf("subject %d unbalanced: %v", id, counts)
		}
	}
}
