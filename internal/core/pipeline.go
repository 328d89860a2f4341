// Package core assembles the full CognitiveArm system of Figure 2: dataset
// generation over the synthetic participant pool, model training, and the
// deployment of a closed-loop controller with voice-command mode switching —
// one façade over every substrate package.
package core

import (
	"fmt"

	"cognitivearm/internal/asr"
	"cognitivearm/internal/audio"
	"cognitivearm/internal/board"
	"cognitivearm/internal/dataset"
	"cognitivearm/internal/edge"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/tensor"
)

// Config sizes a pipeline run. The zero value is unusable; start from
// DefaultConfig.
type Config struct {
	// SubjectIDs are the synthetic participants (the paper uses five).
	SubjectIDs []int
	// Sessions per subject (the paper uses three).
	Sessions int
	// SessionSeconds is the length of one collection session.
	SessionSeconds float64
	// WindowSize is the classifier input length in samples.
	WindowSize int
	// Train controls the per-model training budget.
	Train models.TrainOptions
	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig returns a laptop-scale configuration: two short sessions for
// three subjects, enough for ~85–95 % within-distribution accuracy in a few
// seconds of CPU training.
func DefaultConfig() Config {
	return Config{
		SubjectIDs:     []int{0, 1, 2},
		Sessions:       1,
		SessionSeconds: 48,
		WindowSize:     100,
		Train:          models.TrainOptions{Epochs: 10, BatchSize: 32, Patience: 4, Seed: 1},
		Seed:           1,
	}
}

// PaperConfig mirrors the paper's protocol sizes (five subjects, three
// sessions, five minutes each). Training the full pool at this size takes
// minutes to hours of CPU; use for the full reproduction runs.
func PaperConfig() Config {
	return Config{
		SubjectIDs:     []int{0, 1, 2, 3, 4},
		Sessions:       3,
		SessionSeconds: 300,
		WindowSize:     190,
		Train:          models.TrainOptions{Epochs: 8, BatchSize: 64, Patience: 3, Seed: 1},
		Seed:           1,
	}
}

// Pipeline is a configured CognitiveArm instance.
type Pipeline struct {
	Config Config
	// BySubject holds the processed windows per subject.
	BySubject map[int][]dataset.Window
	// Stats holds per-subject normalisation constants (for live control).
	Stats map[int]dataset.Stats
}

// New builds the dataset stage of the pipeline (acquisition → preprocessing
// → annotation → windows → normalisation → balancing).
func New(cfg Config) (*Pipeline, error) {
	if len(cfg.SubjectIDs) == 0 || cfg.Sessions < 1 {
		return nil, fmt.Errorf("core: need at least one subject and session")
	}
	bySubject, stats, err := dataset.Build(cfg.SubjectIDs, cfg.Sessions,
		dataset.ShortProtocol(cfg.SessionSeconds), cfg.WindowSize, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Pipeline{Config: cfg, BySubject: bySubject, Stats: stats}, nil
}

// GlobalStats returns normalisation constants averaged across every trained
// subject — the serving-time fallback for subjects outside the pool, where
// no per-subject calibration exists yet. Averaging per-subject means and
// stds is an approximation of pooled statistics, but the per-channel scales
// it preserves are what the live filter chain needs.
func (p *Pipeline) GlobalStats() dataset.Stats {
	var out dataset.Stats
	n := 0.0
	for _, id := range p.Config.SubjectIDs {
		st, ok := p.Stats[id]
		if !ok || len(st.Mean) == 0 {
			continue
		}
		if out.Mean == nil {
			out.Mean = make([]float64, len(st.Mean))
			out.Std = make([]float64, len(st.Std))
		}
		for ch := range st.Mean {
			out.Mean[ch] += st.Mean[ch]
			out.Std[ch] += st.Std[ch]
		}
		n++
	}
	if n > 0 {
		for ch := range out.Mean {
			out.Mean[ch] /= n
			out.Std[ch] /= n
		}
	}
	return out
}

// NormFor returns subject id's normalisation stats, falling back to
// GlobalStats for subjects the pipeline never trained on — the admission
// path of the serving hub, which must accept arbitrary subject IDs.
func (p *Pipeline) NormFor(id int) dataset.Stats {
	if st, ok := p.Stats[id]; ok {
		return st
	}
	return p.GlobalStats()
}

// Pooled returns all subjects' windows shuffled together with an 80:20
// train/val split (the within-distribution evaluation).
func (p *Pipeline) Pooled() (train, val []dataset.Window) {
	var all []dataset.Window
	for _, id := range p.Config.SubjectIDs {
		all = append(all, p.BySubject[id]...)
	}
	rng := tensor.NewRNG(p.Config.Seed + 7)
	dataset.Shuffle(all, rng)
	cut := len(all) * 8 / 10
	return all[:cut], all[cut:]
}

// LOSO returns the leave-one-subject-out folds (§III-D1).
func (p *Pipeline) LOSO() []dataset.Split {
	return dataset.LOSO(p.BySubject, tensor.NewRNG(p.Config.Seed+13))
}

// TrainModel fits one spec on the pooled split.
func (p *Pipeline) TrainModel(spec models.Spec) (models.Classifier, models.Result, error) {
	if spec.WindowSize != p.Config.WindowSize {
		return nil, models.Result{}, fmt.Errorf("core: spec window %d != pipeline window %d",
			spec.WindowSize, p.Config.WindowSize)
	}
	train, val := p.Pooled()
	return models.Train(spec, train, val, p.Config.Train)
}

// System is a deployed CognitiveArm: trained classifier, voice channel and
// closed-loop controller for one subject.
type System struct {
	Classifier models.Classifier
	Controller *Controller
	Spotter    *asr.Spotter
	VAD        *audio.VAD
	Board      board.Board
}

// Deploy wires a trained classifier into a live controller for subjectID.
func (p *Pipeline) Deploy(clf models.Classifier, macs int64, subjectID int) (*System, error) {
	st, ok := p.Stats[subjectID]
	if !ok {
		return nil, fmt.Errorf("core: subject %d not in pipeline", subjectID)
	}
	b := board.NewSyntheticCyton(eeg.NewSubject(subjectID), p.Config.Seed+0xB0A4D, false)
	if err := b.Start(); err != nil {
		return nil, err
	}
	ctrl, err := NewController(ControllerConfig{
		Board:         b,
		Classifier:    clf,
		Norm:          st,
		Device:        edge.JetsonOrinNano(),
		InferenceMACs: macs,
	})
	if err != nil {
		b.Stop()
		return nil, err
	}
	return &System{
		Classifier: clf,
		Controller: ctrl,
		Spotter:    asr.NewSpotter(p.Config.Seed),
		VAD:        audio.NewVAD(),
		Board:      b,
	}, nil
}

// Close stops the system's acquisition stream.
func (s *System) Close() error { return s.Board.Stop() }

// HearCommand runs the voice path end-to-end: VAD gates the audio, and if
// speech is present the spotter's keyword switches the controller mode. It
// returns the recognised word.
func (s *System) HearCommand(wave []float64) audio.Word {
	if len(s.VAD.DetectSegments(wave)) == 0 {
		return audio.Silence
	}
	word, _ := s.Spotter.Recognize(wave)
	s.Controller.HandleVoice(word)
	return word
}
