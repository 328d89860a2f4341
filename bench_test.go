// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, plus ablations of its design choices. Each bench
// runs the corresponding experiment at Quick scale and reports the headline
// quantity via b.ReportMetric so `go test -bench` output doubles as the
// reproduction log. cmd/benchtables prints the same results as tables.
package cognitivearm

import (
	"sync"
	"testing"

	"cognitivearm/internal/asr"
	"cognitivearm/internal/audio"
	"cognitivearm/internal/board"
	"cognitivearm/internal/compress"
	"cognitivearm/internal/control"
	"cognitivearm/internal/core"
	"cognitivearm/internal/dataset"
	"cognitivearm/internal/edge"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/evo"
	"cognitivearm/internal/experiments"
	"cognitivearm/internal/models"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/signal"
	"cognitivearm/internal/tensor"
)

// BenchmarkFig4TransportComparison measures the LSL-vs-UDP study. Reported
// metrics: LSL sync error and UDP loss (the two decisive axes).
func BenchmarkFig4TransportComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(150, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.LSL.SyncErrorMs, "lsl-sync-ms")
		b.ReportMetric(r.UDP.SyncErrorMs, "udp-sync-ms")
		b.ReportMetric(100*(1-r.UDP.DeliveredFrac), "udp-loss-%")
	}
}

// BenchmarkFig5Filtering measures the preprocessing chain and reports the
// 50 Hz suppression and alpha-SNR improvement.
func BenchmarkFig5Filtering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(uint64(i) + 1)
		b.ReportMetric(r.Line50Raw/r.Line50Clean, "line-suppression-x")
		b.ReportMetric(r.SNRClean-r.SNRRaw, "alpha-snr-gain-db")
	}
}

// BenchmarkFig7ASRPareto evaluates the Whisper-family zoo and reports the
// selected model's PCC and runtime.
func BenchmarkFig7ASRPareto(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := asrZoo(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(results.PCC, "selected-pcc")
		b.ReportMetric(results.InferenceSec, "selected-rt-s")
	}
}

// BenchmarkFig8EvoSearchCNN runs the per-family evolutionary search (the
// CNN panel of Figure 8) and reports the best model's accuracy and size.
func BenchmarkFig8EvoSearchCNN(b *testing.B) {
	sc := experiments.Quick()
	sc.EvoPopulation, sc.EvoGenerations, sc.Epochs = 4, 1, 4
	for i := 0; i < b.N; i++ {
		sc.Seed = uint64(i) + 1
		res, err := experiments.FamilySearch(sc, models.FamilyCNN)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Best.Accuracy, "best-acc")
		b.ReportMetric(float64(res.Best.Params), "best-params")
	}
}

// BenchmarkFig9ParetoFront merges CNN and RF searches into the global front
// of Figure 9 and reports its size.
func BenchmarkFig9ParetoFront(b *testing.B) {
	sc := experiments.Quick()
	sc.EvoPopulation, sc.EvoGenerations, sc.Epochs = 4, 1, 4
	for i := 0; i < b.N; i++ {
		sc.Seed = uint64(i) + 1
		results := map[models.Family]*evo.Result{}
		for _, fam := range []models.Family{models.FamilyCNN, models.FamilyRF} {
			r, err := experiments.FamilySearch(sc, fam)
			if err != nil {
				b.Fatal(err)
			}
			results[fam] = r
		}
		front := experiments.GlobalFront(results)
		b.ReportMetric(float64(len(front)), "front-size")
	}
}

// BenchmarkFig10RandomForest sweeps the RF grid (estimators × depth) of
// Figure 10 and reports the best cell.
func BenchmarkFig10RandomForest(b *testing.B) {
	sc := experiments.Quick()
	train, val, err := pooled(sc, 90)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		bestAcc, bestNodes := 0.0, 0
		for _, trees := range []int{20, 50, 100, 200} {
			for _, depth := range []int{6, 10, 20, 0} {
				spec := models.Spec{Family: models.FamilyRF, WindowSize: 90, Trees: trees, MaxDepth: depth}
				clf, res, err := models.Train(spec, train, val, models.TrainOptions{Seed: uint64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				if res.ValAcc > bestAcc {
					bestAcc, bestNodes = res.ValAcc, clf.NumParams()
				}
			}
		}
		b.ReportMetric(bestAcc, "best-acc")
		b.ReportMetric(float64(bestNodes), "best-nodes")
	}
}

// BenchmarkFig11Ensembles sweeps every ensemble combination and reports the
// winner's accuracy and modelled latency.
func BenchmarkFig11Ensembles(b *testing.B) {
	sc := experiments.Quick()
	for i := 0; i < b.N; i++ {
		sc.Seed = uint64(i) + 1
		z, err := experiments.TrainZoo(sc)
		if err != nil {
			b.Fatal(err)
		}
		entries := experiments.Fig11(z)
		b.ReportMetric(entries[0].Accuracy, "best-acc")
		b.ReportMetric(entries[0].InferenceSec, "best-latency-s")
	}
}

// BenchmarkFig12Compression sweeps the pruning levels and int8 modes and
// reports the 70 %-pruned and naive-int8 accuracies.
func BenchmarkFig12Compression(b *testing.B) {
	sc := experiments.Quick()
	for i := 0; i < b.N; i++ {
		sc.Seed = uint64(i) + 1
		z, err := experiments.TrainZoo(sc)
		if err != nil {
			b.Fatal(err)
		}
		entries, err := experiments.Fig12(z)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range entries {
			switch e.Name {
			case "prune-70%":
				b.ReportMetric(e.Accuracy, "prune70-acc")
			case "int8-global-naive":
				b.ReportMetric(e.Accuracy, "int8-acc")
				b.ReportMetric(e.InferenceSec, "int8-latency-s")
			}
		}
	}
}

// BenchmarkRealWorldValidation runs the §IV-A5 protocol and reports the
// session success count out of 20.
func BenchmarkRealWorldValidation(b *testing.B) {
	sys, err := QuickStart(11)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	rng := tensor.NewRNG(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		successes := 0
		for s := 0; s < 20; s++ {
			intents := make([]eeg.Action, 3)
			for j := range intents {
				intents[j] = eeg.Action(rng.Intn(3))
			}
			res, err := core.RunValidationSession(sys.Controller, intents, 40)
			if err != nil {
				b.Fatal(err)
			}
			if res.Success {
				successes++
			}
		}
		b.ReportMetric(float64(successes), "sessions-of-20")
	}
}

// BenchmarkHeadline reproduces the §V summary numbers (accuracy, latency
// anchors, LOSO statistics) in one run.
func BenchmarkHeadline(b *testing.B) {
	sc := experiments.Quick()
	for i := 0; i < b.N; i++ {
		sc.Seed = uint64(i) + 1
		z, err := experiments.TrainZoo(sc)
		if err != nil {
			b.Fatal(err)
		}
		r, err := experiments.Headline(z)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.EnsembleAcc, "ensemble-acc")
		b.ReportMetric(r.EnsembleLatencySec, "ensemble-latency-s")
		b.ReportMetric(r.PrunedAcc, "pruned-acc")
		b.ReportMetric(r.QuantAcc, "int8-acc")
		b.ReportMetric(r.LOSOMean, "loso-mean-acc")
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationWindowSize sweeps the window axis for the RF model.
func BenchmarkAblationWindowSize(b *testing.B) {
	sc := experiments.Quick()
	for i := 0; i < b.N; i++ {
		for _, w := range []int{100, 130, 160, 190} {
			train, val, err := pooled(sc, w)
			if err != nil {
				b.Fatal(err)
			}
			spec := models.Spec{Family: models.FamilyRF, WindowSize: w, Trees: 50, MaxDepth: 12}
			_, res, err := models.Train(spec, train, val, models.TrainOptions{Seed: uint64(i) + 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.ValAcc, "acc-w"+itoa(w))
		}
	}
}

// BenchmarkAblationOptimizers compares the four optimizers on the CNN.
func BenchmarkAblationOptimizers(b *testing.B) {
	sc := experiments.Quick()
	train, val, err := pooled(sc, 100)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, opt := range []string{"adam", "sgd", "rmsprop", "adamw"} {
			spec := models.Spec{Family: models.FamilyCNN, WindowSize: 100, Optimizer: opt, LR: 2e-3,
				Dropout: 0.1, ConvLayers: 1, Filters: 16, Kernel: 5, Stride: 2, Pool: "none"}
			_, res, err := models.Train(spec, train, val, models.TrainOptions{Epochs: 8, BatchSize: 32, Seed: uint64(i) + 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.ValAcc, "acc-"+opt)
		}
	}
}

// BenchmarkAblationFilterOrder compares Butterworth orders on 50 Hz
// suppression.
func BenchmarkAblationFilterOrder(b *testing.B) {
	gen := eeg.NewGenerator(eeg.NewSubject(0), 1)
	seg := gen.Generate(eeg.Idle, 1024)
	raw := seg[eeg.ChannelIndex("C3")]
	for i := 0; i < b.N; i++ {
		for _, order := range []int{2, 5, 9} {
			bp, err := signal.Butterworth(order, 0.5, 45, eeg.SampleRate)
			if err != nil {
				b.Fatal(err)
			}
			clean := bp.FiltFilt(raw)
			ratio := signal.BandPower(raw, eeg.SampleRate, 48, 52) /
				(signal.BandPower(clean, eeg.SampleRate, 48, 52) + 1e-12)
			b.ReportMetric(ratio, "suppress-n"+itoa(order))
		}
	}
}

// BenchmarkAblationNormalization measures per-subject normalisation on/off.
func BenchmarkAblationNormalization(b *testing.B) {
	sc := experiments.Quick()
	for i := 0; i < b.N; i++ {
		for _, normalize := range []bool{true, false} {
			bySubject, _, err := dataset.Build(sc.SubjectIDs, 1, dataset.ShortProtocol(sc.SessionSeconds), 100, sc.Seed)
			if err != nil {
				b.Fatal(err)
			}
			var all []dataset.Window
			for _, id := range sc.SubjectIDs {
				all = append(all, bySubject[id]...)
			}
			if !normalize {
				// Build already normalises; undo by rebuilding raw windows.
				all = nil
				for _, id := range sc.SubjectIDs {
					rec := dataset.Collect(eeg.NewSubject(id), 0, dataset.ShortProtocol(sc.SessionSeconds), sc.Seed+uint64(id)*101)
					clean, err := dataset.Preprocess(rec)
					if err != nil {
						b.Fatal(err)
					}
					ws, err := dataset.Segment(clean, dataset.DefaultSegment(100))
					if err != nil {
						b.Fatal(err)
					}
					all = append(all, ws...)
				}
			}
			dataset.Shuffle(all, tensor.NewRNG(3))
			cut := len(all) * 8 / 10
			spec := models.Spec{Family: models.FamilyRF, WindowSize: 100, Trees: 50, MaxDepth: 12}
			_, res, err := models.Train(spec, all[:cut], all[cut:], models.TrainOptions{Seed: uint64(i) + 1})
			if err != nil {
				b.Fatal(err)
			}
			name := "acc-raw"
			if normalize {
				name = "acc-normalized"
			}
			b.ReportMetric(res.ValAcc, name)
		}
	}
}

// BenchmarkAblationVAD measures the ASR resource saving from VAD gating.
func BenchmarkAblationVAD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		active, total := vadDuty(uint64(i) + 1)
		b.ReportMetric(100*active/total, "asr-duty-%")
	}
}

// BenchmarkAblationPruneLevels reports accuracy at every paper prune level.
func BenchmarkAblationPruneLevels(b *testing.B) {
	sc := experiments.Quick()
	train, val, err := pooled(sc, 100)
	if err != nil {
		b.Fatal(err)
	}
	spec := experiments.CompressionSpec(100)
	clf, _, err := models.Train(spec, train, val, models.TrainOptions{Epochs: 12, BatchSize: 32, Patience: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	nn := clf.(*models.NNClassifier)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ratio := range compress.PaperPruneLevels() {
			pruned, _, err := compress.Prune(nn, ratio)
			if err != nil {
				b.Fatal(err)
			}
			if ratio > 0 {
				compress.FineTunePruned(pruned, train, val, 6, uint64(i)+1)
			}
			b.ReportMetric(models.Accuracy(pruned, val), "acc-p"+itoa(int(100*ratio)))
		}
	}
}

// BenchmarkInferenceLatency measures real Go single-window inference time
// for each scaled paper model (the wall-clock complement of the edge model).
func BenchmarkInferenceLatency(b *testing.B) {
	sc := experiments.Quick()
	train, val, err := pooled(sc, 100)
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range models.ScaledPaperSpecs() {
		spec.WindowSize = 100
		clf, _, err := models.Train(spec, train, val, models.TrainOptions{Epochs: 2, BatchSize: 32, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec.ID(), func(b *testing.B) {
			x := val[0].Data
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clf.Predict(x)
			}
		})
	}
}

// BenchmarkEdgeDeviceModel exercises the analytic Jetson model itself.
func BenchmarkEdgeDeviceModel(b *testing.B) {
	device := edge.JetsonOrinNano()
	w := edge.Workload{MACs: 93_000_000}
	for i := 0; i < b.N; i++ {
		_ = device.Latency(w)
	}
}

// --- Fleet serving (internal/serve) ----------------------------------------

// fleetRegistry lazily trains the one shared decoder every serving bench
// reuses (the registry's whole point), so repeated b.N calibration runs
// don't retrain.
var (
	fleetOnce sync.Once
	fleetReg  *serve.Registry
	fleetPipe *core.Pipeline
	fleetErr  error
)

func fleetState(b *testing.B) (*serve.Registry, *core.Pipeline) {
	fleetOnce.Do(func() {
		cfg := core.DefaultConfig()
		fleetPipe, fleetErr = core.New(cfg)
		if fleetErr != nil {
			return
		}
		fleetReg = serve.NewRegistry()
		spec := models.Spec{Family: models.FamilyRF, WindowSize: cfg.WindowSize, Trees: 50, MaxDepth: 12}
		_, _, fleetErr = fleetReg.GetOrBuild("rf-shared", func() (models.Classifier, int64, error) {
			clf, _, err := fleetPipe.TrainModel(spec)
			return clf, models.OpsPerInference(spec), err
		})
		if fleetErr != nil {
			return
		}
		// NN fleet decoder: untrained weights (inference cost is identical and
		// the serving path never looks at accuracy), built once like the RF.
		cnn := models.Spec{Family: models.FamilyCNN, WindowSize: cfg.WindowSize,
			Optimizer: "adam", LR: 1e-3, Dropout: 0.2,
			ConvLayers: 1, Filters: 32, Kernel: 5, Stride: 2, Pool: "none"}
		_, _, fleetErr = fleetReg.GetOrBuild("cnn-shared", func() (models.Classifier, int64, error) {
			net, err := models.BuildNet(cnn, 1)
			if err != nil {
				return nil, 0, err
			}
			return &models.NNClassifier{Net: net, Spec: cnn}, models.OpsPerInference(cnn), nil
		})
	})
	if fleetErr != nil {
		b.Fatal(fleetErr)
	}
	return fleetReg, fleetPipe
}

// benchHub stands up a hub with the shared decoder under modelKey and admits
// the given number of on-demand synthetic-board sessions.
func benchHub(b *testing.B, sessions, shards int, modelKey string) *serve.Hub {
	reg, pipe := fleetState(b)
	hub, err := serve.NewHub(serve.Config{
		Shards:              shards,
		MaxSessionsPerShard: (sessions + shards - 1) / shards,
		TickHz:              control.ClassifyRateHz,
		LatencyWindow:       1024,
	}, reg)
	if err != nil {
		b.Fatal(err)
	}
	subjects := pipe.Config.SubjectIDs
	for i := 0; i < sessions; i++ {
		subject := subjects[i%len(subjects)]
		brd := board.NewSyntheticCyton(eeg.NewSubject(subject), uint64(i)*13+7, false)
		if err := brd.Start(); err != nil {
			b.Fatal(err)
		}
		if _, err := hub.Admit(serve.SessionConfig{
			ModelKey: modelKey,
			Source:   brd,
			Norm:     pipe.NormFor(subject),
		}); err != nil {
			b.Fatal(err)
		}
	}
	// Fill every rolling window so the timed region measures steady-state
	// serving, not warmup.
	for i := 0; i < 20; i++ {
		hub.TickAll()
	}
	return hub
}

// fleetSystems lazily builds the independent baseline: 100 QuickStart
// deployments, i.e. one board, one freshly trained decoder and one loop per
// subject — the seed's serving shape.
var (
	systemsOnce sync.Once
	systems     []*System
	systemsErr  error
)

func independentSystems(b *testing.B, n int) []*System {
	systemsOnce.Do(func() {
		for i := 0; i < n; i++ {
			sys, err := QuickStart(uint64(i) + 1)
			if err != nil {
				systemsErr = err
				return
			}
			systems = append(systems, sys)
		}
		// Same steady-state warmup as the hub.
		for i := 0; i < 20; i++ {
			for _, sys := range systems {
				if _, err := sys.Controller.Tick(); err != nil {
					systemsErr = err
					return
				}
			}
		}
	})
	if systemsErr != nil {
		b.Fatal(systemsErr)
	}
	if len(systems) < n {
		b.Fatalf("baseline built for %d sessions, need %d", len(systems), n)
	}
	return systems[:n]
}

// BenchmarkHubThroughput compares one fleet tick of 100 concurrent sessions
// served by the hub (shared decoder, cross-session batching, 4 shards)
// against 100 independent QuickStart loops (per-deploy decoder, sample-major
// Predict per session). ns/op is directly comparable: both sub-benches
// advance all 100 sessions by one classification period per op. The
// independent baseline also pays 100 training runs in setup where the hub
// pays one — the registry's amortisation, visible in setup wall time.
func BenchmarkHubThroughput(b *testing.B) {
	const sessions = 100
	b.Run("hub-batched", func(b *testing.B) {
		hub := benchHub(b, sessions, 4, "rf-shared")
		defer hub.Stop()
		before := hub.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hub.TickAll()
		}
		b.StopTimer()
		after := hub.Snapshot()
		if inf := after.Inferences - before.Inferences; inf > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(inf), "ns/inference")
		}
		b.ReportMetric(after.TickP99Ms, "tick-p99-ms")
	})
	b.Run("independent-loops", func(b *testing.B) {
		sys := independentSystems(b, sessions)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range sys {
				if _, err := s.Controller.Tick(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		// Windows are full after warmup: every tick classifies once.
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sessions), "ns/inference")
	})
}

// BenchmarkHubScaling sweeps the sessions × shards grid so the serving
// path's scaling curve sits in the perf log next to the paper benches.
func BenchmarkHubScaling(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		for _, sessions := range []int{64, 256} {
			b.Run("s"+itoa(sessions)+"-sh"+itoa(shards), func(b *testing.B) {
				hub := benchHub(b, sessions, shards, "rf-shared")
				defer hub.Stop()
				before := hub.Snapshot()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					hub.TickAll()
				}
				b.StopTimer()
				after := hub.Snapshot()
				secs := b.Elapsed().Seconds()
				if secs > 0 {
					b.ReportMetric(float64(after.Inferences-before.Inferences)/secs, "inferences/s")
				}
			})
		}
	}
}

// BenchmarkNNForwardBatch compares nn's fused batched inference against the
// sequential per-window loop for each NN family of the scaled paper pool, at
// the batch sizes a serving shard actually coalesces. ns/window is directly
// comparable between the -batched and -sequential variants of each pair;
// batched must win from batch ≥ 8 (the acceptance gate for PR 2's tentpole).
func BenchmarkNNForwardBatch(b *testing.B) {
	rng := tensor.NewRNG(7)
	for _, spec := range models.ScaledPaperSpecs() {
		if spec.Family == models.FamilyRF {
			continue
		}
		net, err := models.BuildNet(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		clf := &models.NNClassifier{Net: net, Spec: spec}
		for _, batch := range []int{8, 32} {
			xs := make([]*tensor.Matrix, batch)
			for i := range xs {
				x := tensor.New(spec.WindowSize, eeg.NumChannels)
				for j := range x.Data {
					x.Data[j] = rng.NormFloat64()
				}
				xs[i] = x
			}
			b.Run(spec.Family.String()+"-b"+itoa(batch)+"-batched", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					clf.PredictBatchWS(tensor.NewWorkspace(), xs, nil)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/window")
			})
			b.Run(spec.Family.String()+"-b"+itoa(batch)+"-sequential", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, x := range xs {
						clf.Predict(x)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/window")
			})
		}
	}
}

// BenchmarkHubNNFleet is the CNN twin of BenchmarkHubThroughput's hub arm:
// 100 sessions sharing one CNN decoder, so each shard tick coalesces its
// ready windows into fused batch×feature GEMMs instead of per-window
// forwards. ns/inference is comparable with the RF hub numbers.
func BenchmarkHubNNFleet(b *testing.B) {
	const sessions = 100
	hub := benchHub(b, sessions, 4, "cnn-shared")
	defer hub.Stop()
	before := hub.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub.TickAll()
	}
	b.StopTimer()
	after := hub.Snapshot()
	if inf := after.Inferences - before.Inferences; inf > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(inf), "ns/inference")
	}
	b.ReportMetric(after.TickP99Ms, "tick-p99-ms")
}

// --- helpers ---------------------------------------------------------------

// asrZoo runs the Fig. 7 evaluation and returns the selected model's point.
func asrZoo(seed uint64) (asr.ZooResult, error) {
	results, err := asr.EvaluateZoo(1.49e9*25, 10, seed)
	if err != nil {
		return asr.ZooResult{}, err
	}
	return asr.SelectModel(results, 1.0)
}

// vadDuty returns (speech-active frames, total frames) for a mixed
// speech/noise stream — the ASR duty cycle the VAD gate achieves.
func vadDuty(seed uint64) (active, total float64) {
	synth := audio.NewSynthesizer(seed)
	v := audio.NewVAD()
	var wave []float64
	wave = append(wave, synth.Noise(3, 0.01)...)
	wave = append(wave, synth.Utter(audio.WordArm, 0.8)...)
	wave = append(wave, synth.Noise(3, 0.01)...)
	wave = append(wave, synth.Utter(audio.WordFingers, 0.8)...)
	wave = append(wave, synth.Noise(2, 0.01)...)
	segs := v.DetectSegments(wave)
	for _, s := range segs {
		active += float64(s[1] - s[0])
	}
	return active, float64(len(wave) / audio.FrameSize)
}

func pooled(sc experiments.Scale, window int) (train, val []dataset.Window, err error) {
	bySubject, _, err := dataset.Build(sc.SubjectIDs, 1, dataset.ShortProtocol(sc.SessionSeconds), window, sc.Seed)
	if err != nil {
		return nil, nil, err
	}
	var all []dataset.Window
	for _, id := range sc.SubjectIDs {
		all = append(all, bySubject[id]...)
	}
	dataset.Shuffle(all, tensor.NewRNG(sc.Seed+3))
	cut := len(all) * 8 / 10
	return all[:cut], all[cut:], nil
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}
