package serve

import (
	"math"
	"reflect"
	"testing"

	"cognitivearm/internal/control"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/stream"
)

// offlineSession is the single-subject reference a served session must
// match: a Windower, per-window Predict and a Debouncer, fed the same
// samples in the same per-tick groups, with its own copy of the 125/15
// accumulator.
type offlineSession struct {
	clf      models.Classifier
	win      *control.Windower
	debounce control.Debouncer
	acc      float64
	stats    SessionStats
}

func newOfflineSession(t *testing.T, reg *Registry, sc SessionConfig) *offlineSession {
	t.Helper()
	clf, _, ok := reg.Get(sc.ModelKey)
	if !ok {
		t.Fatalf("model %q not in registry", sc.ModelKey)
	}
	win, err := control.NewWindower(eeg.SampleRate, eeg.NumChannels, clf.WindowSize(), sc.Norm)
	if err != nil {
		t.Fatal(err)
	}
	return &offlineSession{clf: clf, win: win, stats: SessionStats{Actions: map[eeg.Action]uint64{}}}
}

// due advances the reference rate schedule one 15 Hz tick.
func (o *offlineSession) due() int {
	o.acc += eeg.SampleRate / 15.0
	n := int(o.acc)
	o.acc -= float64(n)
	return n
}

// tick pushes one tick's samples and, once the window is full, classifies
// it and feeds the label through the debounce.
func (o *offlineSession) tick(samples []stream.Sample) {
	if len(samples) == 0 {
		o.stats.IdleTicks++
		return
	}
	o.stats.IdleTicks = 0
	for _, smp := range samples {
		o.win.Push(smp.Values)
	}
	if !o.win.Ready() {
		return
	}
	a := eeg.Action(o.clf.Predict(o.win.Window()))
	o.stats.Decoded++
	o.stats.Actions[a]++
	if o.debounce.Observe(a) {
		o.stats.Agreed++
	}
}

// TestBufferedSessionCatchesUp pins the drain rule on both kinds of source
// in one hub. A ring holding a k-sample backlog drains its due samples plus
// up to catchUp = ⌈125/15⌉ = 9 more each tick, so it is empty within
// ⌈k/catchUp⌉ ticks, and its decode counters are those of an offline
// Windower + Predict + Debouncer over the same per-tick groups. A
// script-fed session beside it keeps the 125/15 rate schedule bit for bit.
func TestBufferedSessionCatchesUp(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 32}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()

	const backlog = 400
	catchUp := int(math.Ceil(eeg.SampleRate / 15.0))
	ringStream := scriptedEEG(0, 97, backlog)
	ring := stream.NewRing(backlog)
	for _, smp := range ringStream {
		ring.Push(smp)
	}
	script := &scriptSource{samples: scriptedEEG(0, 41, 1000)}
	ringCfg := SessionConfig{ModelKey: "rf", Source: RingSource{Ring: ring}, Norm: p.NormFor(0)}
	scriptCfg := SessionConfig{ModelKey: "rf", Source: script, Norm: p.NormFor(0)}
	ringID, err := hub.Admit(ringCfg)
	if err != nil {
		t.Fatal(err)
	}
	scriptID, err := hub.Admit(scriptCfg)
	if err != nil {
		t.Fatal(err)
	}
	ringRef, scriptRef := newOfflineSession(t, reg, ringCfg), newOfflineSession(t, reg, scriptCfg)

	bound := (backlog + catchUp - 1) / catchUp
	ringPos, scriptPos := 0, 0
	for tick := 1; tick <= bound+3; tick++ {
		hub.TickAll()

		due := ringRef.due()
		n := min(backlog-ringPos, due+min(catchUp, max(0, backlog-ringPos-due)))
		ringRef.tick(ringStream[ringPos : ringPos+n])
		ringPos += n
		if got := ring.Len(); got != backlog-ringPos {
			t.Fatalf("tick %d: ring holds %d samples, want %d", tick, got, backlog-ringPos)
		}

		due = scriptRef.due()
		scriptRef.tick(script.samples[scriptPos : scriptPos+due])
		scriptPos += due
		if script.pos != scriptPos {
			t.Fatalf("tick %d: script session read %d samples, want the rate schedule's %d", tick, script.pos, scriptPos)
		}

		for _, c := range []struct {
			id  SessionID
			ref *offlineSession
		}{{ringID, ringRef}, {scriptID, scriptRef}} {
			got, ok := hub.Session(c.id)
			if !ok {
				t.Fatalf("session %d vanished", c.id)
			}
			c.ref.stats.ID = c.id
			if !reflect.DeepEqual(got, c.ref.stats) {
				t.Fatalf("tick %d session %d diverged from the offline reference:\n got %+v\nwant %+v", tick, c.id, got, c.ref.stats)
			}
		}
	}
	if ringPos != backlog {
		t.Fatalf("ring drained %d of %d samples", ringPos, backlog)
	}
	if ringRef.stats.Decoded == 0 || scriptRef.stats.Decoded == 0 {
		t.Fatal("no window was classified; the comparison proves nothing")
	}

	// The bound itself, stated directly: a fresh backlog of k samples is
	// gone within ⌈k/catchUp⌉ ticks.
	for _, k := range []int{1, catchUp, catchUp + 1, 3*catchUp + 2, 100} {
		for _, smp := range scriptedEEG(0, 5, k) {
			ring.Push(smp)
		}
		ticks := 0
		for ring.Len() > 0 {
			hub.TickAll()
			ticks++
		}
		if want := (k + catchUp - 1) / catchUp; ticks > want {
			t.Fatalf("a %d-sample backlog took %d ticks to drain, want at most %d", k, ticks, want)
		}
	}
}

// TestPendingSourceCatchesUpOnPendingOnly restores a ring session's record,
// pending samples and all, in front of an on-demand source. The restored
// session catches up through the replayed samples, and only them: once they
// are gone it reads exactly the rate schedule's due from the live source,
// which would have synthesised anything it was asked for.
func TestPendingSourceCatchesUpOnPendingOnly(t *testing.T) {
	reg, p := testFleet(t)
	cfg := Config{Shards: 1, MaxSessionsPerShard: 1, TickHz: 15, LatencyWindow: 32}
	src, err := NewHub(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Stop()
	const backlog = 120
	ring := stream.NewRing(backlog)
	for _, smp := range scriptedEEG(0, 97, backlog) {
		ring.Push(smp)
	}
	id, err := src.Admit(SessionConfig{ModelKey: "rf", Source: RingSource{Ring: ring}, Norm: p.NormFor(0)})
	if err != nil {
		t.Fatal(err)
	}
	src.TickAll()
	rec, ok := src.ExtractSession(id)
	if !ok {
		t.Fatal("extract failed")
	}
	pending := len(rec.Pending)
	if pending <= 2*int(math.Ceil(eeg.SampleRate/15.0)) {
		t.Fatalf("record carries %d pending samples; too few to exercise catch-up", pending)
	}

	dst, err := NewHub(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Stop()
	live := &scriptSource{samples: scriptedEEG(0, 41, 1000)}
	newID, err := dst.RestoreSession(rec, live)
	if err != nil {
		t.Fatal(err)
	}
	catchUp := int(math.Ceil(rec.SampleRateHz / cfg.TickHz))
	acc, livePos := rec.SampleAcc, 0
	for tick := 1; tick <= 30; tick++ {
		dst.TickAll()
		acc += rec.SampleRateHz / cfg.TickHz
		due := int(acc)
		acc -= float64(due)
		n := due + min(catchUp, max(0, pending-due))
		fromPending := min(n, pending)
		pending -= fromPending
		livePos += n - fromPending
		if live.pos != livePos {
			t.Fatalf("tick %d: live source read %d samples, want %d", tick, live.pos, livePos)
		}
		var left int
		for _, r := range dst.CaptureState().Sessions {
			if SessionID(r.ID) == newID {
				left = len(r.Pending)
			}
		}
		if left != pending {
			t.Fatalf("tick %d: %d replayed samples left, want %d", tick, left, pending)
		}
	}
	if pending != 0 || livePos == 0 {
		t.Fatalf("30 ticks left %d replayed samples and read %d live ones; the test proves nothing", pending, livePos)
	}
}
