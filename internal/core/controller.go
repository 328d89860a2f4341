package core

import (
	"fmt"
	"time"

	"cognitivearm/internal/arm"
	"cognitivearm/internal/audio"
	"cognitivearm/internal/board"
	"cognitivearm/internal/control"
	"cognitivearm/internal/dataset"
	"cognitivearm/internal/edge"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/serve"
)

// Mode is the voice-selected degree of freedom (§III-F1).
type Mode int

// The three control modes of Fig. 6.
const (
	ModeArm Mode = iota
	ModeElbow
	ModeFingers
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeArm:
		return "arm"
	case ModeElbow:
		return "elbow"
	case ModeFingers:
		return "fingers"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// StepDeg is the per-label angular increment, the "variable amount of
// change in the position of the arm" unit.
const StepDeg = 3.0

// ControllerConfig assembles a Controller.
type ControllerConfig struct {
	Board      board.Board
	Classifier models.Classifier
	// Norm holds the subject's training normalisation constants, applied to
	// live windows exactly as during training (§V-A).
	Norm dataset.Stats
	// Device models inference latency; zero value disables edge accounting.
	Device edge.Device
	// InferenceMACs is the classifier's per-window workload for the device
	// model.
	InferenceMACs int64
}

// LatencyBreakdown aggregates modelled and measured per-stage latencies.
type LatencyBreakdown struct {
	Ticks            int
	TickWallSec      float64 // measured Go time in the hub's ticks, all stages
	EdgeInferenceSec float64 // modelled Jetson inference time (per tick sum)
	ActuationSec     float64 // modelled serial+servo command latency
}

// PerTick returns the mean modelled end-to-end latency per classification.
func (l LatencyBreakdown) PerTick() float64 {
	if l.Ticks == 0 {
		return 0
	}
	return (l.EdgeInferenceSec + l.ActuationSec) / float64(l.Ticks)
}

// Controller runs the single-subject closed loop (§IV-A) in simulated time.
// The loop is a one-session serve.Hub over the board: each tick the session
// drains the board's due samples through its filters and rolling window,
// classifies the window at control.ClassifyRateHz and debounces the label,
// as every fleet session does. The session's sink, decide, is the hardware
// side: a voice-selected Mode multiplexes the three core actions onto the
// arm's degrees of freedom (arm / elbow / fingers, Fig. 6), and serial
// frames drive the Arduino's servos. RunValidationSession is the paper's
// real-world validation protocol (19/20 sessions, §IV-A5).
type Controller struct {
	cfg     ControllerConfig
	arduino *arm.Arduino
	hub     *serve.Hub
	id      serve.SessionID
	mode    Mode
	// label and classified are what decide received in the current tick.
	label      eeg.Action
	classified bool

	Latency LatencyBreakdown
}

// NewController builds a controller. The board must be started by the
// caller; stopping the controller's hub (System.Close) stops it.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if cfg.Board == nil || cfg.Classifier == nil {
		return nil, fmt.Errorf("core: board and classifier are required")
	}
	const model = "controller" // the key of the hub's one classifier
	hcfg := serve.DefaultConfig()
	hcfg.Shards, hcfg.KernelThreads, hcfg.MaxSessionsPerShard = 1, 1, 1
	hub, err := serve.NewHub(hcfg, nil)
	if err != nil {
		return nil, err
	}
	if _, _, err := hub.Registry().GetOrBuild(model, func() (models.Classifier, int64, error) {
		return cfg.Classifier, cfg.InferenceMACs, nil
	}); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, arduino: arm.NewArduino(), hub: hub}
	info := cfg.Board.Info()
	if c.id, err = hub.Admit(serve.SessionConfig{ModelKey: model, Source: cfg.Board, Norm: cfg.Norm,
		Channels: info.Channels, SampleRateHz: info.SampleRateHz, Sink: c.decide}); err != nil {
		return nil, err
	}
	return c, nil
}

// Arduino exposes the actuator for inspection.
func (c *Controller) Arduino() *arm.Arduino { return c.arduino }

// Mode returns the active voice-selected mode.
func (c *Controller) Mode() Mode { return c.mode }

// Predictions counts the labels emitted per action; it is empty once the
// system is closed, which ends the session.
func (c *Controller) Predictions() map[eeg.Action]uint64 {
	st, _ := c.hub.Session(c.id)
	return st.Actions
}

// HandleVoice applies a recognised keyword to the mode multiplexer.
func (c *Controller) HandleVoice(w audio.Word) {
	switch w {
	case audio.WordArm:
		c.mode = ModeArm
	case audio.WordElbow:
		c.mode = ModeElbow
	case audio.WordFingers:
		c.mode = ModeFingers
	}
}

// Tick advances one classification period: one hub tick, which hands a
// label to decide once the window is full, then one period of servo time.
// It returns the label (Idle before the window fills) and whether a window
// was classified.
func (c *Controller) Tick() (eeg.Action, bool) {
	c.label, c.classified = eeg.Idle, false
	t0 := time.Now()
	c.hub.TickAll()
	c.Latency.TickWallSec += time.Since(t0).Seconds()
	// Servo time advances one tick; serial latency ~1 frame at 115200 baud.
	c.arduino.Step(1.0 / control.ClassifyRateHz)
	c.Latency.ActuationSec += 5.0*10/115200 + 1.0/control.ClassifyRateHz/2
	c.Latency.Ticks++
	return c.label, c.classified
}

// decide is the session's sink: it charges the edge model for the
// classification and actuates an agreed label. The tick calls it under the
// shard lock; it takes only the Arduino's own lock.
func (c *Controller) decide(a eeg.Action, agreed bool) {
	c.label, c.classified = a, true
	if c.cfg.InferenceMACs > 0 {
		c.Latency.EdgeInferenceSec += c.cfg.Device.Latency(edge.Workload{MACs: c.cfg.InferenceMACs}).Seconds()
	}
	if agreed {
		c.actuate(a)
	}
}

// actuate maps (mode, action) to servo deltas per Fig. 6.
func (c *Controller) actuate(a eeg.Action) {
	if a == eeg.Idle {
		return
	}
	dir := 1.0 // Right
	if a == eeg.Left {
		dir = -1
	}
	var frames []arm.Frame
	switch c.mode {
	case ModeArm: // raise / lower
		frames = append(frames, arm.Frame{Channel: arm.ChanArm, AngleDeg: c.arduino.Target(arm.ChanArm) + dir*StepDeg})
	case ModeElbow: // rotate CW / ACW
		frames = append(frames, arm.Frame{Channel: arm.ChanElbow, AngleDeg: c.arduino.Target(arm.ChanElbow) + dir*StepDeg})
	case ModeFingers: // close / open
		for _, ch := range arm.FingerChannels() {
			frames = append(frames, arm.Frame{Channel: ch, AngleDeg: c.arduino.Target(ch) + dir*StepDeg})
		}
	}
	for _, f := range frames {
		b := f.Encode()
		c.arduino.Write(b[:])
	}
}

// SessionResult reports one real-world validation session (§IV-A5).
type SessionResult struct {
	Intents      int
	CorrectMoves int
	Success      bool
}

// RunValidationSession reproduces the paper's protocol: the participant
// holds a sequence of intents (announced verbally in the paper; here the
// ground truth drives the simulated board), the loop runs, and the session
// succeeds if every intent block moves the arm in the intended direction.
// ticksPerIntent controls how long each intent is held.
func RunValidationSession(c *Controller, intents []eeg.Action, ticksPerIntent int) (SessionResult, error) {
	res := SessionResult{Intents: len(intents)}
	for _, intent := range intents {
		// Each block starts from the rest pose, as each live trial did —
		// otherwise earlier blocks park the servos at their limits and later
		// movement has nowhere to go.
		if err := arm.SendPose(c.arduino, arm.PoseRest); err != nil {
			return res, err
		}
		c.arduino.Step(3)
		c.cfg.Board.SetState(intent)
		// Transition period (§III-B2): let the rolling window flush the
		// previous intent before scoring, as the live protocol's cue-to-task
		// margin does. One window plus the debounce depth suffices.
		warmup := c.cfg.Classifier.WindowSize()/8 + control.SmoothingWindow
		for t := 0; t < warmup; t++ {
			c.Tick()
		}
		before := c.dofPosition()
		counts := map[eeg.Action]int{}
		for t := 0; t < ticksPerIntent; t++ {
			if a, classified := c.Tick(); classified {
				counts[a]++
			}
		}
		moved := c.dofPosition() - before
		// Scoring follows the live protocol: the participant's verbal
		// confirmation is compared against the emitted labels, i.e. the
		// majority label must match the intent; non-idle intents must also
		// move the arm the right way.
		majority := eeg.Idle
		bestCount := -1
		for _, a := range eeg.Actions() {
			if counts[a] > bestCount {
				majority, bestCount = a, counts[a]
			}
		}
		correct := majority == intent
		switch intent {
		case eeg.Right:
			correct = correct && moved > 0
		case eeg.Left:
			correct = correct && moved < 0
		}
		if correct {
			res.CorrectMoves++
		}
	}
	res.Success = res.CorrectMoves == res.Intents
	return res, nil
}

// dofPosition reads the active mode's primary servo target.
func (c *Controller) dofPosition() float64 {
	switch c.mode {
	case ModeElbow:
		return c.arduino.Target(arm.ChanElbow)
	case ModeFingers:
		return c.arduino.Target(arm.ChanIndex)
	default:
		return c.arduino.Target(arm.ChanArm)
	}
}
