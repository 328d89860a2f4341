// Package cognitivearm is the public façade of the CognitiveArm
// reproduction: an EEG-driven, voice-multiplexed prosthetic-arm system
// (Basit et al., DAC 2025) built entirely in Go on synthetic substrates.
//
// The package re-exports the pipeline (dataset → models → compression →
// closed-loop control) from internal/core and offers a one-call QuickStart
// for the examples. Full substrate access — filters, transports, the
// evolutionary search, the experiment harness — lives in the internal
// packages and is exercised through this façade, the cmd/ tools, and the
// bench suite.
package cognitivearm

import (
	"cognitivearm/internal/core"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/serve"
)

// Re-exported core types: the façade intentionally stays thin so godoc for
// this package reads as the system's user guide.
type (
	// Config sizes a pipeline run (subjects, sessions, window, training).
	Config = core.Config
	// Pipeline is the dataset+training stage of the system.
	Pipeline = core.Pipeline
	// System is a deployed closed-loop instance for one subject: a
	// one-session Hub over its board, whose sink drives the arm.
	System = core.System
	// Action is a decoded mental command (idle / left / right).
	Action = eeg.Action
	// Spec is a model hyperparameter assignment.
	Spec = models.Spec
	// Classifier is the uniform inference interface.
	Classifier = models.Classifier

	// Hub is the concurrent multi-session serving layer: many closed-loop
	// sessions multiplexed over shared models on a few worker shards.
	Hub = serve.Hub
	// HubConfig sizes a serving hub (shards × sessions, tick rate).
	HubConfig = serve.Config
	// ModelRegistry trains or deserialises each classifier once and shares
	// it read-only across the fleet.
	ModelRegistry = serve.Registry
	// SessionConfig describes one session joining the fleet.
	SessionConfig = serve.SessionConfig
	// SessionID identifies an admitted session.
	SessionID = serve.SessionID
	// FleetSnapshot is the aggregated serving-metrics report.
	FleetSnapshot = serve.FleetSnapshot
)

// Action values.
const (
	Idle  = eeg.Idle
	Left  = eeg.Left
	Right = eeg.Right
)

// DefaultConfig returns the laptop-scale configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// PaperConfig returns the paper-protocol-sized configuration.
func PaperConfig() Config { return core.PaperConfig() }

// NewPipeline builds the dataset stage: synthetic acquisition,
// preprocessing, annotation, windowing, normalisation and balancing.
func NewPipeline(cfg Config) (*Pipeline, error) { return core.New(cfg) }

// PaperSpecs returns the paper's four Pareto-optimal model configurations.
func PaperSpecs() []Spec { return models.PaperSpecs() }

// ScaledPaperSpecs returns their CPU-trainable equivalents.
func ScaledPaperSpecs() []Spec { return models.ScaledPaperSpecs() }

// DefaultHubConfig returns the laptop-scale serving configuration.
func DefaultHubConfig() HubConfig { return serve.DefaultConfig() }

// NewModelRegistry creates an empty shared-model registry.
func NewModelRegistry() *ModelRegistry { return serve.NewRegistry() }

// NewHub builds a serving hub over a shared-model registry (nil creates a
// fresh one). See cmd/cogarmd for the daemon around it and cmd/loadgen for
// the benchmark driver.
func NewHub(cfg HubConfig, reg *ModelRegistry) (*Hub, error) { return serve.NewHub(cfg, reg) }

// QuickStart trains a fast Random-Forest decoder for one synthetic subject
// and deploys the full closed loop, ready for Tick-driven control: a
// one-session Hub runs EEG board → filters → classifier → debounce, and its
// session's sink drives the mode mux → Arduino/servos. It is the five-line
// path from nothing to a moving arm.
func QuickStart(seed uint64) (*System, error) {
	cfg := DefaultConfig()
	cfg.SubjectIDs = []int{0}
	cfg.Seed = seed
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	spec := Spec{Family: models.FamilyRF, WindowSize: cfg.WindowSize, Trees: 50, MaxDepth: 12}
	clf, _, err := p.TrainModel(spec)
	if err != nil {
		return nil, err
	}
	return p.Deploy(clf, models.OpsPerInference(spec), 0)
}
