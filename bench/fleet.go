package main

import (
	"fmt"

	"cognitivearm/internal/core"
	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/stream"
	"cognitivearm/internal/tensor"
)

const (
	// traceSamples is one session's looped input: 10 s at 125 Hz.
	traceSamples = 1250
	// actionSamples is how long one imagined action lasts in a trace: 3 s.
	actionSamples = 375
	// tickHz is the paper's label rate, the hub's production setting.
	tickHz = 15.0
	// warmTicks is how many ticks a replay fleet runs before it counts as
	// warm: 12 fill the 100-sample windows, the rest settle arenas and the
	// kernel pool. The output check compares the hub against the reference
	// at exactly this tick.
	warmTicks = 200
	// checkSessions is how many sessions the output check follows.
	checkSessions = 8
)

// model is one shared classifier at serving shape plus the normalisation its
// sessions apply.
type model struct {
	key  string
	clf  models.Classifier
	macs int64
	norm dataset.Stats
}

// cnnSpec is the CNN the committed serving numbers have always used
// (cmd/benchtables -serve): one conv layer, 32 filters, kernel 5, stride 2.
func cnnSpec(window int) models.Spec {
	return models.Spec{Family: models.FamilyCNN, WindowSize: window, Optimizer: "adam", LR: 1e-3,
		Dropout: 0.2, ConvLayers: 1, Filters: 32, Kernel: 5, Stride: 2, Pool: "none"}
}

// buildModel makes the named model the way a deploy would: rf is trained on
// one subject's 24 s session, cnn serves untrained weights (identical cost to
// trained ones). The model does not depend on the workload seed — the seed
// varies the inputs, not the program.
func buildModel(key string) (model, error) {
	cfg := core.DefaultConfig()
	cfg.SubjectIDs = []int{0}
	cfg.SessionSeconds = 24
	pipe, err := core.New(cfg)
	if err != nil {
		return model{}, err
	}
	m := model{key: key, norm: pipe.NormFor(0)}
	switch key {
	case "rf":
		spec := models.Spec{Family: models.FamilyRF, WindowSize: cfg.WindowSize, Trees: 50, MaxDepth: 12}
		if m.clf, _, err = pipe.TrainModel(spec); err != nil {
			return model{}, err
		}
		m.macs = models.OpsPerInference(spec)
	case "cnn":
		spec := cnnSpec(cfg.WindowSize)
		net, err := models.BuildNet(spec, 1)
		if err != nil {
			return model{}, err
		}
		m.clf, m.macs = &models.NNClassifier{Net: net, Spec: spec}, models.OpsPerInference(spec)
	default:
		return model{}, fmt.Errorf("bench: unknown model %q", key)
	}
	return m, nil
}

// makeTrace synthesises session's looped input from the workload seed: 10 s
// of 16-channel EEG whose imagined action changes every 3 s. Values of all
// samples share one backing array so a replay touches contiguous memory.
func makeTrace(seed uint64, session int) []stream.Sample {
	rng := tensor.NewRNG(seed*1_000_003 + uint64(session)*7919 + 1)
	gen := eeg.NewGenerator(eeg.NewSubject(0), rng.Uint64())
	flat := make([]float64, traceSamples*eeg.NumChannels)
	out := make([]stream.Sample, traceSamples)
	action := eeg.Idle
	for i := range out {
		if i%actionSamples == 0 {
			action = eeg.Action(rng.Intn(eeg.NumActions))
		}
		v := gen.Next(action)
		row := flat[i*eeg.NumChannels : (i+1)*eeg.NumChannels : (i+1)*eeg.NumChannels]
		copy(row, v[:])
		out[i] = stream.Sample{Values: row}
	}
	return out
}

// traceSet makes the n sessions' traces of one seed.
func traceSet(seed uint64, n int) [][]stream.Sample {
	out := make([][]stream.Sample, n)
	for i := range out {
		out[i] = makeTrace(seed, i)
	}
	return out
}

// replaySource is the benchmark's load generator for the closed-loop
// workloads: it hands the hub a pre-generated trace, looped, without copying
// a value. board.SyntheticCyton synthesises EEG inside ReadInto, which is why
// loadgen and BENCH_serve.json mostly time the generator; here everything
// expensive happened in set-up, and the drain span proves it.
type replaySource struct {
	trace []stream.Sample
	pos   int    // next sample of the trace
	seq   uint64 // samples handed out so far
	tr    *tracer
}

// Read implements serve.Source.
func (r *replaySource) Read(max int) []stream.Sample { return r.ReadInto(nil, max) }

// ReadInto implements serve.ReaderInto. A closed-loop source is never dry:
// it always has the max samples the tick is due.
func (r *replaySource) ReadInto(dst []stream.Sample, max int) []stream.Sample {
	sp := r.tr.child(spanDrain)
	for i := 0; i < max; i++ {
		s := r.trace[r.pos]
		s.Seq = r.seq
		s.Timestamp = float64(r.seq) / eeg.SampleRate
		dst = append(dst, s)
		r.seq++
		if r.pos++; r.pos == len(r.trace) {
			r.pos = 0
		}
	}
	r.tr.end(sp, max)
	return dst
}

// tracedClassifier wraps the shared model so the traced pass sees the batched
// inference call as a span, with the batch size beside it. The hub groups
// ready windows by classifier identity, so one wrapper serves the fleet
// exactly as the bare model would.
type tracedClassifier struct {
	models.Classifier
	tr *tracer
}

// PredictBatchWS implements models.BatchPredictorWS over the wrapped model's
// own most capable path.
func (c *tracedClassifier) PredictBatchWS(ws *tensor.Workspace, xs []*tensor.Matrix, dst []int) []int {
	sp := c.tr.child(spanInfer)
	dst = models.PredictBatchWS(c.Classifier, ws, xs, dst)
	c.tr.end(sp, len(xs))
	return dst
}

// newRegistry registers m under its key; with wrap the hub serves it through
// a tracedClassifier (which models.Save rejects, so journaled fleets never
// wrap).
func newRegistry(m model, tr *tracer, wrap bool) (*serve.Registry, error) {
	clf := m.clf
	if wrap {
		clf = &tracedClassifier{Classifier: m.clf, tr: tr}
	}
	reg := serve.NewRegistry()
	if _, _, err := reg.GetOrBuild(m.key, func() (models.Classifier, int64, error) { return clf, m.macs, nil }); err != nil {
		return nil, err
	}
	return reg, nil
}

// newHub builds a hub in the production shape: shards and kernel threads
// auto-sized from GOMAXPROCS, 15 Hz, telemetry on unless the telemetry A/B
// asks for the bare one.
func newHub(reg *serve.Registry, bare bool) (*serve.Hub, error) {
	cfg := serve.DefaultConfig()
	cfg.Shards, cfg.KernelThreads = 0, 0
	cfg.TickHz = tickHz
	cfg.DisableTelemetry = bare
	return serve.NewHub(cfg, reg)
}

// replayFleet is a hub fed by replay sources, one per session, in admission
// order: session i has ID ids[i] and source srcs[i].
type replayFleet struct {
	hub  *serve.Hub
	ids  []serve.SessionID
	srcs []*replaySource
}

// newReplayFleet admits one replay session per trace to hub, which the fleet
// then owns.
func newReplayFleet(hub *serve.Hub, m model, traces [][]stream.Sample, tr *tracer) (*replayFleet, error) {
	f := &replayFleet{hub: hub}
	for i, trace := range traces {
		src := &replaySource{trace: trace, tr: tr}
		id, err := hub.Admit(serve.SessionConfig{ModelKey: m.key, Source: src, Norm: m.norm, Tag: sessionTag(i)})
		if err != nil {
			return nil, fmt.Errorf("bench: admit session %d: %w", i, err)
		}
		f.ids, f.srcs = append(f.ids, id), append(f.srcs, src)
	}
	return f, nil
}

// sessionTag labels session i in checkpoints, as cogarmd tags its sessions.
func sessionTag(i int) string { return fmt.Sprintf("bench:%d", i) }

// cursor is a replay source's position, enough to rebind a restored session
// to exactly the input the original would have read next.
type cursor struct {
	pos int
	seq uint64
}

func (f *replayFleet) cursors() []cursor {
	out := make([]cursor, len(f.srcs))
	for i, s := range f.srcs {
		out[i] = cursor{s.pos, s.seq}
	}
	return out
}

// decisions reads the hub's inference counter: one debounced-label decision
// per session per tick once windows are full.
func decisions(hub *serve.Hub) uint64 { return hub.Snapshot().Inferences }
