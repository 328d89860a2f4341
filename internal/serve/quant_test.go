package serve

import (
	"strings"
	"testing"

	"cognitivearm/internal/core"
	"cognitivearm/internal/models"
)

func TestHubShardsAutoDerived(t *testing.T) {
	hub, err := NewHub(Config{Shards: 0, MaxSessionsPerShard: 4, TickHz: 15}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	if n := hub.Config().Shards; n < 1 || n > MaxAutoShards {
		t.Fatalf("derived shards = %d, want 1..%d", n, MaxAutoShards)
	}
	if _, err := NewHub(Config{Shards: -1, MaxSessionsPerShard: 4, TickHz: 15}, nil); err == nil {
		t.Fatal("negative shard count must be rejected")
	}
}

// TestKernelThreadsAutoDerived pins the auto pool to the cores the shard loops
// leave idle: none when they fill the machine, never past the cap.
func TestKernelThreadsAutoDerived(t *testing.T) {
	for _, tc := range []struct{ procs, shards, want int }{
		{2, 2, 1}, {4, 1, 4}, {8, 4, 4}, {1, 1, 1}, {2, 8, 1}, {3, 2, 2},
	} {
		if got := autoKernelThreads(tc.procs, tc.shards); got != tc.want {
			t.Errorf("GOMAXPROCS %d, %d shards: %d kernel threads, want %d", tc.procs, tc.shards, got, tc.want)
		}
	}
	// An explicit setting is honoured whatever the shard count.
	if got := kernelThreadCount(Config{Shards: 8, KernelThreads: 3}); got != 3 {
		t.Fatalf("explicit KernelThreads 3 resolved to %d", got)
	}
}

// quantFleet builds a registry with quantization enabled before any model
// resolves: a trained RF, an untrained CNN, and an LSTM with no int8 form.
func quantFleet(t *testing.T) (*Registry, *core.Pipeline) {
	t.Helper()
	_, p := testFleet(t) // reuse testFleet's trained pipeline
	reg := NewRegistry()
	reg.EnableQuantization(QuantPolicy{MinAgreement: 0.9})
	rfSpec := models.Spec{Family: models.FamilyRF, WindowSize: p.Config.WindowSize, Trees: 20, MaxDepth: 10}
	if _, _, err := reg.GetOrBuild("rf", func() (models.Classifier, int64, error) {
		clf, _, err := p.TrainModel(rfSpec)
		return clf, models.OpsPerInference(rfSpec), err
	}); err != nil {
		t.Fatal(err)
	}
	cnnSpec := models.Spec{Family: models.FamilyCNN, WindowSize: p.Config.WindowSize,
		Optimizer: "adam", LR: 1e-3, ConvLayers: 1, Filters: 16, Kernel: 5, Stride: 2, Pool: "none"}
	if _, _, err := reg.GetOrBuild("cnn", func() (models.Classifier, int64, error) {
		net, err := models.BuildNet(cnnSpec, 1)
		if err != nil {
			return nil, 0, err
		}
		return &models.NNClassifier{Net: net, Spec: cnnSpec}, models.OpsPerInference(cnnSpec), nil
	}); err != nil {
		t.Fatal(err)
	}
	lstmSpec := models.Spec{Family: models.FamilyLSTM, WindowSize: p.Config.WindowSize,
		Optimizer: "adam", LR: 1e-3, LSTMLayers: 1, Hidden: 8}
	if _, _, err := reg.GetOrBuild("lstm", func() (models.Classifier, int64, error) {
		net, err := models.BuildNet(lstmSpec, 1)
		if err != nil {
			return nil, 0, err
		}
		return &models.NNClassifier{Net: net, Spec: lstmSpec}, models.OpsPerInference(lstmSpec), nil
	}); err != nil {
		t.Fatal(err)
	}
	return reg, p
}

func TestRegistryQuantizesSupportedModels(t *testing.T) {
	reg, _ := quantFleet(t)
	for _, key := range []string{"rf", "cnn"} {
		clf, _, ok := reg.Get(key)
		if !ok {
			t.Fatalf("%s missing", key)
		}
		qc, isQ := clf.(*models.QuantizedClassifier)
		if !isQ {
			t.Fatalf("%s: got %T, want *models.QuantizedClassifier", key, clf)
		}
		if qc.Agreement < 0.9 {
			t.Fatalf("%s: gate passed at agreement %.4f", key, qc.Agreement)
		}
	}
	// LSTM has no quantized form: the exact model serves.
	clf, _, ok := reg.Get("lstm")
	if !ok {
		t.Fatal("lstm missing")
	}
	if _, isQ := clf.(*models.QuantizedClassifier); isQ {
		t.Fatalf("lstm should serve exact f64, got %T", clf)
	}
}

func TestRegistryQuantizeGateFailsBuild(t *testing.T) {
	_, p := testFleet(t)
	reg := NewRegistry()
	// An unattainable gate (agreement can never exceed 1.0) must fail the
	// build and surface the cause, not silently serve the twin.
	reg.EnableQuantization(QuantPolicy{MinAgreement: 1.1})
	spec := models.Spec{Family: models.FamilyRF, WindowSize: p.Config.WindowSize, Trees: 5, MaxDepth: 6}
	_, _, err := reg.GetOrBuild("rf", func() (models.Classifier, int64, error) {
		clf, _, err := p.TrainModel(spec)
		return clf, 0, err
	})
	if err == nil || !strings.Contains(err.Error(), "agreement") {
		t.Fatalf("gate failure should fail the build with the agreement, got %v", err)
	}
	if _, _, ok := reg.Get("rf"); ok {
		t.Fatal("failed build must not resolve")
	}
}

// TestHubQuantizedEndToEnd serves a mixed quantized fleet through ticks and
// checks sessions decode labels (the quantized classifiers are live on the
// batched tick path, with the kernel pool attached).
func TestHubQuantizedEndToEnd(t *testing.T) {
	reg, p := quantFleet(t)
	hub, err := NewHub(Config{Shards: 2, MaxSessionsPerShard: 8, TickHz: 15,
		LatencyWindow: 16, KernelThreads: 2, Quantize: true}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	var ids []SessionID
	for i := 0; i < 6; i++ {
		sc := boardSession(t, p, 0, uint64(i)*13+1)
		sc.ModelKey = []string{"rf", "cnn", "lstm"}[i%3]
		id, err := hub.Admit(sc)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 40; i++ {
		hub.TickAll()
	}
	for _, id := range ids {
		st, ok := hub.Session(id)
		if !ok {
			t.Fatalf("session %d vanished", id)
		}
		if st.Decoded == 0 {
			t.Fatalf("session %d decoded nothing after 40 ticks", id)
		}
	}
}

// TestHubParallelEquivalence runs the same fleet through a serial hub and a
// pooled hub and requires identical per-session label counts: the parallel
// blocked GEMM path must be bitwise-equivalent to the serial kernels, so
// thread count can never change decodes.
func TestHubParallelEquivalence(t *testing.T) {
	reg, p := testFleet(t)
	// 64 filters: eight 48-step windows make a 2 M-MAC conv product, past the
	// kernel pool's crossover even on a tick where only five are due.
	cnnSpec := models.Spec{Family: models.FamilyCNN, WindowSize: p.Config.WindowSize,
		Optimizer: "adam", LR: 1e-3, ConvLayers: 1, Filters: 64, Kernel: 5, Stride: 2, Pool: "none"}
	if _, _, err := reg.GetOrBuild("cnn", func() (models.Classifier, int64, error) {
		net, err := models.BuildNet(cnnSpec, 1)
		if err != nil {
			return nil, 0, err
		}
		return &models.NNClassifier{Net: net, Spec: cnnSpec}, 0, nil
	}); err != nil {
		t.Fatal(err)
	}

	run := func(threads int) map[int]SessionStats {
		hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 16, TickHz: 15,
			LatencyWindow: 16, KernelThreads: threads}, reg)
		if err != nil {
			t.Fatal(err)
		}
		defer hub.Stop()
		ids := make([]SessionID, 0, 8)
		for i := 0; i < 8; i++ {
			sc := boardSession(t, p, 0, uint64(i)*7+5)
			sc.ModelKey = "cnn" // big enough GEMM to cross the parallel threshold
			id, err := hub.Admit(sc)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for i := 0; i < 30; i++ {
			hub.TickAll()
		}
		out := map[int]SessionStats{}
		for i, id := range ids {
			st, ok := hub.Session(id)
			if !ok {
				t.Fatalf("session %d vanished", id)
			}
			out[i] = st
		}
		return out
	}

	serial := run(1)
	parallel := run(4)
	for i, want := range serial {
		got := parallel[i]
		if want.Decoded == 0 {
			t.Fatalf("session %d decoded nothing", i)
		}
		if got.Decoded != want.Decoded || got.Agreed != want.Agreed {
			t.Fatalf("session %d: parallel decodes (%d,%d) != serial (%d,%d)",
				i, got.Decoded, got.Agreed, want.Decoded, want.Agreed)
		}
		for a, n := range want.Actions {
			if got.Actions[a] != n {
				t.Fatalf("session %d action %v: parallel %d != serial %d", i, a, got.Actions[a], n)
			}
		}
	}
}
