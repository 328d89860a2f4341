package core

import (
	"testing"

	"cognitivearm/internal/audio"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.SubjectIDs = []int{0, 1}
	cfg.SessionSeconds = 32
	cfg.Train.Epochs = 6
	return cfg
}

func TestNewBuildsBalancedDataset(t *testing.T) {
	p, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.BySubject) != 2 {
		t.Fatalf("subjects %d", len(p.BySubject))
	}
	for id, ws := range p.BySubject {
		if len(ws) == 0 {
			t.Fatalf("subject %d has no windows", id)
		}
		if _, ok := p.Stats[id]; !ok {
			t.Fatalf("subject %d missing stats", id)
		}
	}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config should error")
	}
}

func TestPooledSplit(t *testing.T) {
	p, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	train, val := p.Pooled()
	if len(train) == 0 || len(val) == 0 {
		t.Fatal("empty split")
	}
	ratio := float64(len(train)) / float64(len(train)+len(val))
	if ratio < 0.75 || ratio > 0.85 {
		t.Fatalf("train ratio %v", ratio)
	}
}

func TestLOSOFoldsMatchSubjects(t *testing.T) {
	p, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	folds := p.LOSO()
	if len(folds) != 2 {
		t.Fatalf("folds %d", len(folds))
	}
}

func TestTrainModelWindowMismatch(t *testing.T) {
	p, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := models.Spec{Family: models.FamilyRF, WindowSize: 190, Trees: 10}
	if _, _, err := p.TrainModel(spec); err == nil {
		t.Fatal("window mismatch should error")
	}
}

func TestEndToEndDeployAndControl(t *testing.T) {
	p, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := models.Spec{Family: models.FamilyRF, WindowSize: 100, Trees: 40, MaxDepth: 12}
	clf, res, err := p.TrainModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.ValAcc < 0.7 {
		t.Fatalf("val acc %v", res.ValAcc)
	}
	sys, err := p.Deploy(clf, models.OpsPerInference(spec), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Voice: switch to fingers mode through the full audio path.
	synth := audio.NewSynthesizer(p.Config.Seed)
	word := sys.HearCommand(synth.Utter(audio.WordFingers, 0.8))
	if word != audio.WordFingers {
		t.Fatalf("voice path recognised %v", word)
	}
	if sys.Controller.Mode() != ModeFingers {
		t.Fatal("mode not switched")
	}
	// Silence must not change the mode.
	if w := sys.HearCommand(synth.Noise(0.5, 0.01)); w != audio.Silence {
		t.Fatalf("noise produced %v", w)
	}

	// EEG: run one validation session.
	resSess, err := RunValidationSession(sys.Controller,
		[]eeg.Action{eeg.Right, eeg.Idle}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if resSess.CorrectMoves == 0 {
		t.Fatal("closed loop produced no correct moves")
	}
}

func TestDeployUnknownSubject(t *testing.T) {
	p, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := models.Spec{Family: models.FamilyRF, WindowSize: 100, Trees: 5}
	clf, _, err := p.TrainModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Deploy(clf, 1, 99); err == nil {
		t.Fatal("unknown subject should error")
	}
}
