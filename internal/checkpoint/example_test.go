package checkpoint_test

import (
	"fmt"
	"os"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/rf"
	"cognitivearm/internal/tensor"
)

// Example persists a minimal fleet state and loads it back, demonstrating
// the Save → LoadLatest cycle serve.Hub.Checkpoint / serve.RestoreHubWal
// wrap. Real fleets are captured from a live hub; here the state is built by
// hand to show the shape of what lands on disk.
func Example() {
	rng := tensor.NewRNG(4)
	X := make([][]float64, 60)
	y := make([]int, len(X))
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		y[i] = i % eeg.NumActions
	}
	forest, err := rf.Fit(X, y, eeg.NumActions, rf.Config{Trees: 3, MaxDepth: 3, MinSamplesSplit: 2, Seed: 1})
	if err != nil {
		panic(err)
	}
	clf := &models.RFClassifier{Forest: forest,
		Spec: models.Spec{Family: models.FamilyRF, WindowSize: 90, Trees: 3, MaxDepth: 3}}

	state := &checkpoint.FleetState{
		Manifest: checkpoint.Manifest{
			Hub:    checkpoint.HubConfig{Shards: 1, MaxSessionsPerShard: 4, TickHz: 15, LatencyWindow: 64},
			NextID: 1,
			Shards: []checkpoint.ShardCounters{{Ticks: 42}},
		},
		Models:    map[string]models.Classifier{"shared": clf},
		ModelMACs: map[string]int64{"shared": 9},
	}

	root, err := os.MkdirTemp("", "ckpt-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(root)
	if _, err := checkpoint.Save(root, state); err != nil {
		panic(err)
	}
	loaded, _, err := checkpoint.LoadLatest(root)
	if err != nil {
		panic(err)
	}
	fmt.Println("seq:", loaded.Manifest.Seq)
	fmt.Println("models:", len(loaded.Models))
	fmt.Println("shard 0 ticks:", loaded.Manifest.Shards[0].Ticks)
	// Output:
	// seq: 1
	// models: 1
	// shard 0 ticks: 42
}
