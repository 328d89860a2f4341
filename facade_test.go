package cognitivearm

import (
	"testing"

	"cognitivearm/internal/eeg"
)

func TestQuickStartEndToEnd(t *testing.T) {
	sys, err := QuickStart(42)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Classifier == nil || sys.Controller == nil || sys.Spotter == nil {
		t.Fatal("incomplete system")
	}
	sys.Board.SetState(eeg.Right)
	for i := 0; i < 40; i++ {
		sys.Controller.Tick()
	}
	if sys.Controller.Predictions()[Right] == 0 {
		t.Fatalf("no right labels emitted: %v", sys.Controller.Predictions())
	}
}

func TestConfigConstructors(t *testing.T) {
	d := DefaultConfig()
	p := PaperConfig()
	if len(p.SubjectIDs) != 5 {
		t.Fatal("paper config should have five subjects")
	}
	if d.WindowSize <= 0 || p.WindowSize <= 0 {
		t.Fatal("window sizes must be positive")
	}
	if len(PaperSpecs()) != 4 || len(ScaledPaperSpecs()) != 4 {
		t.Fatal("four model families expected")
	}
}

func TestPipelineFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SubjectIDs = []int{0}
	cfg.SessionSeconds = 24
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, val := p.Pooled()
	if len(train) == 0 || len(val) == 0 {
		t.Fatal("empty pooled split")
	}
}
