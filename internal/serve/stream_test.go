package serve

import (
	"testing"

	"cognitivearm/internal/eeg"
	"cognitivearm/internal/stream"
)

// TestStreamedTickMatchesWindowPredict: every label a CNN session's tick
// decodes through its conv stream is the label per-window Predict gives the
// session's window after that tick. The fleet covers a scripted session, a
// ring session catching up 17–18 samples a tick, one whose stream drops
// short samples (a rejected push moves neither the window nor the stream)
// and one admitted while the others run, whose first tick fills its stream.
func TestStreamedTickMatchesWindowPredict(t *testing.T) {
	reg, p := testFleet(t)
	addCNN(t, reg, p)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 8, TickHz: 15, LatencyWindow: 32}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	admit := func(src Source) {
		t.Helper()
		if _, err := hub.Admit(SessionConfig{ModelKey: "cnn", Source: src, Norm: p.NormFor(0)}); err != nil {
			t.Fatal(err)
		}
	}
	admit(&scriptSource{samples: scriptedEEG(0, 41, 900)})
	ring := stream.NewRing(1600)
	for _, smp := range scriptedEEG(0, 97, 1600) {
		ring.Push(smp)
	}
	admit(RingSource{Ring: ring})
	short := scriptedEEG(0, 53, 900)
	for i := 7; i < len(short); i += 13 {
		short[i].Values = short[i].Values[:3]
	}
	admit(&scriptSource{samples: short})

	sh := hub.shards[0]
	checked := 0
	for tick := 0; tick < 80; tick++ {
		if tick == 30 {
			admit(&scriptSource{samples: scriptedEEG(0, 71, 900)})
		}
		before := map[*session][eeg.NumActions]uint64{}
		for _, sess := range sh.sessions {
			before[sess] = sess.actions
		}
		sh.tick()
		for _, sess := range sh.sessions {
			was := before[sess]
			for a, n := range sess.actions {
				if n == was[a] {
					continue
				}
				if want := sess.clf.Predict(sess.win.Window()); a != want {
					t.Fatalf("tick %d session %d decoded %v, per-window Predict %v", tick, sess.id, eeg.Action(a), eeg.Action(want))
				}
				checked++
			}
		}
	}
	if checked < 150 {
		t.Fatalf("only %d labels checked", checked)
	}
}
