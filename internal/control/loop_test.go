package control_test

// The single-subject loop, core.Controller, is a one-session serving hub,
// whose session runs this package's Windower and Debouncer: these tests
// drive them end to end, from board samples to servo targets. They live in
// the external test package, which may import core although core imports
// control.

import (
	"testing"

	"cognitivearm/internal/arm"
	"cognitivearm/internal/audio"
	"cognitivearm/internal/board"
	"cognitivearm/internal/control"
	"cognitivearm/internal/core"
	"cognitivearm/internal/dataset"
	"cognitivearm/internal/edge"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/tensor"
)

// buildController trains a fast RF on subject 0 and wires the loop up,
// returning the controller and the board that feeds it.
func buildController(t *testing.T) (*core.Controller, *board.SyntheticCyton) {
	t.Helper()
	subj := eeg.NewSubject(0)
	rec := dataset.Collect(subj, 0, dataset.ShortProtocol(48), 11)
	clean, err := dataset.Preprocess(rec)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := dataset.Segment(clean, dataset.DefaultSegment(100))
	if err != nil {
		t.Fatal(err)
	}
	stats := dataset.ComputeStats(ws)
	dataset.Normalize(ws, stats)
	ws = dataset.Balance(ws, tensor.NewRNG(1))
	cut := len(ws) * 8 / 10
	spec := models.Spec{Family: models.FamilyRF, WindowSize: 100, Trees: 40, MaxDepth: 12}
	clf, res, err := models.Train(spec, ws[:cut], ws[cut:], models.TrainOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.ValAcc < 0.8 {
		t.Fatalf("control-test classifier too weak: %v", res.ValAcc)
	}
	b := board.NewSyntheticCyton(subj, 77, false)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Stop() })
	ctrl, err := core.NewController(core.ControllerConfig{
		Board:         b,
		Classifier:    clf,
		Norm:          stats,
		Device:        edge.JetsonOrinNano(),
		InferenceMACs: models.OpsPerInference(spec),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, b
}

func TestNewRequiresParts(t *testing.T) {
	if _, err := core.NewController(core.ControllerConfig{}); err == nil {
		t.Fatal("empty config should error")
	}
}

func TestVoiceModeSwitch(t *testing.T) {
	ctrl, _ := buildController(t)
	if ctrl.Mode() != core.ModeArm {
		t.Fatal("default mode should be arm")
	}
	ctrl.HandleVoice(audio.WordFingers)
	if ctrl.Mode() != core.ModeFingers {
		t.Fatal("voice should switch to fingers")
	}
	ctrl.HandleVoice(audio.WordElbow)
	if ctrl.Mode() != core.ModeElbow {
		t.Fatal("voice should switch to elbow")
	}
	ctrl.HandleVoice(audio.Silence) // no-op
	if ctrl.Mode() != core.ModeElbow {
		t.Fatal("silence must not switch modes")
	}
}

func TestWindowFillsThenClassifies(t *testing.T) {
	ctrl, b := buildController(t)
	b.SetState(eeg.Right)
	ticks := 0
	for classified := false; !classified; {
		_, classified = ctrl.Tick()
		ticks++
		if ticks > 100 {
			t.Fatal("window never filled")
		}
	}
	// 100-sample window at ~8.3 samples/tick ≈ 12 ticks.
	if ticks < 10 || ticks > 15 {
		t.Fatalf("window filled after %d ticks, expected ~12", ticks)
	}
}

func TestRightImageryRaisesArm(t *testing.T) {
	ctrl, b := buildController(t)
	b.SetState(eeg.Right)
	start := ctrl.Arduino().Target(arm.ChanArm)
	for i := 0; i < 60; i++ {
		ctrl.Tick()
	}
	if got := ctrl.Arduino().Target(arm.ChanArm); got <= start {
		t.Fatalf("right imagery should raise the arm: %v -> %v (predictions %v)",
			start, got, ctrl.Predictions())
	}
}

func TestLeftImageryClosesVsOpensFingers(t *testing.T) {
	ctrl, brd := buildController(t)
	ctrl.HandleVoice(audio.WordFingers)
	// Pre-close fingers so "open" has room.
	for _, ch := range arm.FingerChannels() {
		f := arm.Frame{Channel: ch, AngleDeg: 45}
		b := f.Encode()
		ctrl.Arduino().Write(b[:])
	}
	brd.SetState(eeg.Left)
	for i := 0; i < 60; i++ {
		ctrl.Tick()
	}
	if got := ctrl.Arduino().Target(arm.ChanIndex); got >= 45 {
		t.Fatalf("left imagery in fingers mode should open the hand: %v", got)
	}
}

func TestIdleHoldsPosition(t *testing.T) {
	ctrl, b := buildController(t)
	b.SetState(eeg.Idle)
	// Fill window first.
	for i := 0; i < 20; i++ {
		ctrl.Tick()
	}
	start := ctrl.Arduino().Target(arm.ChanArm)
	for i := 0; i < 45; i++ {
		ctrl.Tick()
	}
	moved := ctrl.Arduino().Target(arm.ChanArm) - start
	if moved > 2*core.StepDeg || moved < -2*core.StepDeg {
		t.Fatalf("idle should hold position, drifted %v degrees", moved)
	}
}

func TestLatencyAccounting(t *testing.T) {
	ctrl, b := buildController(t)
	b.SetState(eeg.Right)
	for i := 0; i < 30; i++ {
		ctrl.Tick()
	}
	l := ctrl.Latency
	if l.Ticks != 30 {
		t.Fatalf("ticks %d", l.Ticks)
	}
	if l.EdgeInferenceSec <= 0 || l.ActuationSec <= 0 {
		t.Fatalf("latency model not accounted: %+v", l)
	}
	// RF inference is tiny: per-tick end-to-end must fit the 15 Hz budget.
	if per := l.PerTick(); per > 1.0/control.ClassifyRateHz+0.02 {
		t.Fatalf("per-tick latency %v blows the 15 Hz budget", per)
	}
}

// TestRealWorldValidation reproduces §IV-A5: 20 sessions of intent blocks;
// the paper reports 19/20 successful. We require ≥ 17 to absorb simulation
// randomness while preserving the "nearly always works" shape.
func TestRealWorldValidation(t *testing.T) {
	ctrl, _ := buildController(t)
	rng := tensor.NewRNG(5)
	successes := 0
	const sessions = 20
	for s := 0; s < sessions; s++ {
		intents := make([]eeg.Action, 3)
		for i := range intents {
			intents[i] = eeg.Action(rng.Intn(3))
		}
		res, err := core.RunValidationSession(ctrl, intents, 40)
		if err != nil {
			t.Fatal(err)
		}
		if res.Success {
			successes++
		}
	}
	if successes < 17 {
		t.Fatalf("only %d/%d sessions succeeded; paper reports 19/20", successes, sessions)
	}
	t.Logf("real-world validation: %d/%d sessions", successes, sessions)
}

func TestModeString(t *testing.T) {
	if core.ModeArm.String() != "arm" || core.ModeElbow.String() != "elbow" || core.ModeFingers.String() != "fingers" {
		t.Fatal("mode names")
	}
	if core.Mode(9).String() == "" {
		t.Fatal("unknown mode should format")
	}
}
