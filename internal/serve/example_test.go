package serve_test

import (
	"fmt"
	"os"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/rf"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/stream"
	"cognitivearm/internal/tensor"
)

// tinyForest trains a small shared decoder directly on synthetic feature
// vectors — a stand-in for core.Pipeline.TrainModel that keeps the examples
// fast and deterministic.
func tinyForest(windowSize int) models.Classifier {
	rng := tensor.NewRNG(8)
	X := make([][]float64, 90)
	y := make([]int, len(X))
	for i := range X {
		X[i] = make([]float64, 5*eeg.NumChannels)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
		y[i] = i % eeg.NumActions
	}
	forest, err := rf.Fit(X, y, eeg.NumActions, rf.Config{Trees: 5, MaxDepth: 4, MinSamplesSplit: 2, Seed: 2})
	if err != nil {
		panic(err)
	}
	return &models.RFClassifier{Forest: forest,
		Spec: models.Spec{Family: models.FamilyRF, WindowSize: windowSize, Trees: 5, MaxDepth: 4}}
}

// Example runs a minimal fleet: one shared registry model, one ring-fed
// session, caller-paced ticks.
func Example() {
	reg := serve.NewRegistry()
	reg.GetOrBuild("shared", func() (models.Classifier, int64, error) {
		return tinyForest(100), 0, nil
	})
	hub, err := serve.NewHub(serve.Config{Shards: 1, MaxSessionsPerShard: 8, TickHz: 15}, reg)
	if err != nil {
		panic(err)
	}
	defer hub.Stop()

	// A client streams raw EEG into a ring (in production, a UDP/LSL inlet
	// fills it); the session drains it at the tick rate.
	ring := stream.NewRing(512)
	gen := eeg.NewGenerator(eeg.NewSubject(0), 42)
	for i := 0; i < 150; i++ {
		raw := gen.Next(eeg.Left)
		ring.Push(stream.Sample{Seq: uint64(i), Values: append([]float64(nil), raw[:]...)})
	}
	id, err := hub.Admit(serve.SessionConfig{
		ModelKey: "shared",
		Source:   serve.RingSource{Ring: ring},
		Norm:     dataset.Stats{}, // zero value: no normalisation
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 15; i++ { // 15 ticks × ~8⅓ samples fill the 100-sample window
		hub.TickAll()
	}
	st, _ := hub.Session(id)
	fmt.Println("sessions:", hub.Sessions())
	fmt.Println("decoded some labels:", st.Decoded > 0)
	// Output:
	// sessions: 1
	// decoded some labels: true
}

// ExampleHub_Checkpoint kills a serving hub and resumes it from disk: the
// restored fleet keeps its sessions, models and counters, without retraining.
func ExampleHub_Checkpoint() {
	reg := serve.NewRegistry()
	reg.GetOrBuild("shared", func() (models.Classifier, int64, error) {
		return tinyForest(100), 0, nil
	})
	hub, _ := serve.NewHub(serve.Config{Shards: 1, MaxSessionsPerShard: 8, TickHz: 15}, reg)
	ring := stream.NewRing(512)
	gen := eeg.NewGenerator(eeg.NewSubject(1), 7)
	for i := 0; i < 200; i++ {
		raw := gen.Next(eeg.Right)
		ring.Push(stream.Sample{Seq: uint64(i), Values: append([]float64(nil), raw[:]...)})
	}
	hub.Admit(serve.SessionConfig{ModelKey: "shared", Source: serve.RingSource{Ring: ring}, Tag: "demo"})
	for i := 0; i < 10; i++ {
		hub.TickAll()
	}

	root, err := os.MkdirTemp("", "cogarm-example-ckpt")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(root)
	if _, err := hub.Checkpoint(root); err != nil {
		panic(err)
	}
	hub.Stop() // the crash

	// Restart: the factory rebinds a live source per session by its tag.
	restored, _, _, err := serve.RestoreHubWal(root, "",
		func(rec serve.RestoredSession) (serve.Source, error) {
			return serve.RingSource{Ring: stream.NewRing(512)}, nil
		})
	if err != nil {
		panic(err)
	}
	defer restored.Stop()
	fmt.Println("restored sessions:", restored.Sessions())
	// Output:
	// restored sessions: 1
}
