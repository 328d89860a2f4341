package serve

import (
	"testing"

	"cognitivearm/internal/board"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/stream"
)

// TestShardTickAllocFree is the tentpole's regression gate: once windows are
// full and the arena is warm, a shard tick — source drain, window push,
// cross-session batched classification, debounce — performs zero heap
// allocations, for both classifier kinds. Board sources synthesise EEG
// on-demand through ReadInto's buffer-recycling path, so the whole
// closed loop is covered, not just the classify call. One ring-fed session
// holds a backlog through every measured tick, so the catch-up drain
// (PendingLen, the larger read) is covered too.
func TestShardTickAllocFree(t *testing.T) {
	reg, p := testFleet(t)
	// Add an NN decoder alongside testFleet's forest: untrained weights
	// serve identically to trained ones and build in microseconds.
	cnnSpec := models.Spec{Family: models.FamilyCNN, WindowSize: p.Config.WindowSize,
		Optimizer: "adam", LR: 1e-3, Dropout: 0.2, ConvLayers: 1, Filters: 8, Kernel: 5, Stride: 2, Pool: "none"}
	if _, _, err := reg.GetOrBuild("cnn", func() (models.Classifier, int64, error) {
		net, err := models.BuildNet(cnnSpec, 1)
		if err != nil {
			return nil, 0, err
		}
		return &models.NNClassifier{Net: net, Spec: cnnSpec}, models.OpsPerInference(cnnSpec), nil
	}); err != nil {
		t.Fatal(err)
	}

	for _, modelKey := range []string{"rf", "cnn"} {
		t.Run(modelKey, func(t *testing.T) {
			const sessions = 8
			hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: sessions + 1, TickHz: 15, LatencyWindow: 32}, reg)
			if err != nil {
				t.Fatal(err)
			}
			defer hub.Stop()
			for i := 0; i < sessions; i++ {
				b := board.NewSyntheticCyton(eeg.NewSubject(0), uint64(i)*7+3, false)
				if err := b.Start(); err != nil {
					t.Fatal(err)
				}
				if _, err := hub.Admit(SessionConfig{ModelKey: modelKey, Source: b, Norm: p.NormFor(0)}); err != nil {
					t.Fatal(err)
				}
			}
			// 76 ticks at up to 18 samples each drain at most 1368.
			ring := stream.NewRing(1600)
			for _, smp := range scriptedEEG(0, 97, 1600) {
				ring.Push(smp)
			}
			if _, err := hub.Admit(SessionConfig{ModelKey: modelKey, Source: RingSource{Ring: ring}, Norm: p.NormFor(0)}); err != nil {
				t.Fatal(err)
			}
			sh := hub.shards[0]
			for i := 0; i < 25; i++ { // fill windows, warm arena + workspace
				sh.tick()
			}
			if avg := testing.AllocsPerRun(50, sh.tick); avg != 0 {
				t.Fatalf("steady-state shard tick allocates %.1f times per tick, want 0", avg)
			}
			if drained := 1600 - ring.Len(); ring.Len() == 0 || drained < 76*17 {
				t.Fatalf("ring session drained %d samples in 76 ticks with %d left: it was not catching up throughout", drained, ring.Len())
			}
		})
	}
}
