package models

import (
	"strings"
	"testing"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/tensor"
)

// smallData builds a quick 2-subject dataset for training tests.
func smallData(t *testing.T, window int) (train, val []dataset.Window) {
	t.Helper()
	bySubject, _, err := dataset.Build([]int{0, 1}, 1, dataset.ShortProtocol(40), window, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(8)
	var all []dataset.Window
	// Pool in fixed subject order: ranging over the map makes the train/val
	// split depend on iteration order, which flakes the accuracy thresholds.
	for _, id := range []int{0, 1} {
		all = append(all, bySubject[id]...)
	}
	dataset.Shuffle(all, rng)
	cut := len(all) * 8 / 10
	return all[:cut], all[cut:]
}

func TestSpecValidate(t *testing.T) {
	for _, s := range PaperSpecs() {
		if err := s.Validate(); err != nil {
			t.Fatalf("paper spec invalid: %v", err)
		}
	}
	bad := []Spec{
		{Family: FamilyCNN, WindowSize: 5},
		{Family: FamilyCNN, WindowSize: 100},                                                     // missing conv params
		{Family: FamilyLSTM, WindowSize: 100},                                                    // missing hidden
		{Family: FamilyTransformer, WindowSize: 100, TFLayers: 1, Heads: 3, DModel: 8, FFDim: 4}, // 8 % 3 != 0
		{Family: FamilyRF, WindowSize: 100},                                                      // no trees
		{Family: Family(9), WindowSize: 100},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad spec %d validated: %+v", i, s)
		}
	}
}

func TestSpecIDs(t *testing.T) {
	ids := map[string]bool{}
	for _, s := range PaperSpecs() {
		id := s.ID()
		if ids[id] {
			t.Fatalf("duplicate id %s", id)
		}
		ids[id] = true
	}
	if !strings.HasPrefix(PaperSpecs()[0].ID(), "cnn-") {
		t.Fatal("cnn id prefix")
	}
}

func TestPaperSpecParamCounts(t *testing.T) {
	// The paper's LSTM (1×512) must dwarf the CNN (1 conv, 32 filters) —
	// that's the crux of Figures 8/9.
	specs := PaperSpecs()
	var cnnP, lstmP, tfP int
	for _, s := range specs {
		if s.Family == FamilyRF {
			continue
		}
		net, err := BuildNet(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		switch s.Family {
		case FamilyCNN:
			cnnP = net.NumParams()
		case FamilyLSTM:
			lstmP = net.NumParams()
		case FamilyTransformer:
			tfP = net.NumParams()
		}
	}
	// LSTM 1×512 with 16 inputs: 4·512·(528)+4·512 ≈ 1.08M params.
	if lstmP < 1_000_000 || lstmP > 1_200_000 {
		t.Fatalf("paper LSTM params %d, want ~1.08M", lstmP)
	}
	if cnnP >= lstmP || cnnP >= tfP {
		t.Fatalf("CNN (%d) should be the smallest NN (lstm %d, tf %d)", cnnP, lstmP, tfP)
	}
}

func TestBuildNetErrors(t *testing.T) {
	s := Spec{Family: FamilyCNN, WindowSize: 12, ConvLayers: 3, Filters: 4, Kernel: 7, Stride: 3, Pool: "max", Optimizer: "adam", LR: 1e-3}
	if _, err := BuildNet(s, 1); err == nil {
		t.Fatal("collapsing conv stack should error")
	}
	if _, err := BuildNet(Spec{Family: FamilyRF, WindowSize: 100, Trees: 10}, 1); err == nil {
		t.Fatal("BuildNet should reject RF family")
	}
}

func TestTrainCNNOnSyntheticEEG(t *testing.T) {
	train, val := smallData(t, 100)
	s := Spec{Family: FamilyCNN, WindowSize: 100, Optimizer: "adam", LR: 2e-3, Dropout: 0.1,
		ConvLayers: 1, Filters: 8, Kernel: 5, Stride: 2, Pool: "none"}
	clf, res, err := Train(s, train, val, TrainOptions{Epochs: 12, BatchSize: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.ValAcc < 0.6 {
		t.Fatalf("CNN val accuracy %v too low (chance = 0.33)", res.ValAcc)
	}
	if clf.WindowSize() != 100 {
		t.Fatal("window size lost")
	}
	probs := clf.Probs(val[0].Data)
	if len(probs) != eeg.NumActions {
		t.Fatalf("probs size %d", len(probs))
	}
}

func TestTrainRFOnSyntheticEEG(t *testing.T) {
	train, val := smallData(t, 100)
	s := Spec{Family: FamilyRF, WindowSize: 100, Trees: 40, MaxDepth: 12}
	clf, res, err := Train(s, train, val, TrainOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.ValAcc < 0.6 {
		t.Fatalf("RF val accuracy %v too low", res.ValAcc)
	}
	if clf.NumParams() == 0 {
		t.Fatal("forest node count should be positive")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, _, err := Train(Spec{Family: FamilyCNN, WindowSize: 5}, nil, nil, TrainOptions{Epochs: 8, BatchSize: 32, Patience: 3, Seed: 1}); err == nil {
		t.Fatal("invalid spec should error")
	}
	s := Spec{Family: FamilyRF, WindowSize: 100, Trees: 5}
	if _, _, err := Train(s, nil, nil, TrainOptions{Epochs: 8, BatchSize: 32, Patience: 3, Seed: 1}); err == nil {
		t.Fatal("empty training set should error")
	}
	badOpt := Spec{Family: FamilyCNN, WindowSize: 50, ConvLayers: 1, Filters: 2, Kernel: 3, Stride: 2,
		Optimizer: "magic", LR: 1e-3}
	train, val := smallData(t, 50)
	if _, _, err := Train(badOpt, train, val, TrainOptions{Epochs: 1}); err == nil {
		t.Fatal("unknown optimizer should error")
	}
}

func TestOpsPerInferenceOrdering(t *testing.T) {
	specs := PaperSpecs()
	ops := map[Family]int64{}
	for _, s := range specs {
		o := OpsPerInference(s)
		if o <= 0 {
			t.Fatalf("ops for %v = %d", s.Family, o)
		}
		ops[s.Family] = o
	}
	if ops[FamilyRF] >= ops[FamilyCNN] {
		t.Fatal("RF inference should be far cheaper than CNN")
	}
	if ops[FamilyCNN] >= ops[FamilyLSTM] {
		t.Fatal("paper CNN should be cheaper than the 512-unit LSTM")
	}
}

func TestToExamples(t *testing.T) {
	train, _ := smallData(t, 50)
	ex := ToExamples(train[:3])
	for i := range ex {
		if ex[i].X != train[i].Data || ex[i].Label != int(train[i].Label) {
			t.Fatal("conversion mangled data")
		}
	}
}

func TestFamilyString(t *testing.T) {
	if FamilyCNN.String() != "cnn" || FamilyRF.String() != "rf" || Family(7).String() == "" {
		t.Fatal("family names")
	}
	if len(Families()) != 4 {
		t.Fatal("family count")
	}
}
