package models

import (
	"bytes"
	"encoding/gob"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	train, val := smallData(t, 50)
	spec := Spec{Family: FamilyCNN, WindowSize: 50, Optimizer: "adam", LR: 2e-3,
		Dropout: 0.1, ConvLayers: 1, Filters: 8, Kernel: 5, Stride: 2, Pool: "none"}
	clf, _, err := Train(spec, train, val, TrainOptions{Epochs: 3, BatchSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	orig := clf.(*NNClassifier)

	loaded := roundTripNN(t, orig)
	if loaded.Spec != orig.Spec {
		t.Fatalf("spec mangled: %+v vs %+v", loaded.Spec, orig.Spec)
	}
	if loaded.NumParams() != orig.NumParams() {
		t.Fatal("parameter count changed")
	}
	// Identical predictions on every validation window.
	for _, w := range val {
		if orig.Predict(w.Data) != loaded.Predict(w.Data) {
			t.Fatal("loaded model predicts differently")
		}
	}
	// And bit-identical probabilities.
	p1, p2 := orig.Probs(val[0].Data), loaded.Probs(val[0].Data)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("probabilities differ: %v vs %v", p1, p2)
		}
	}
}

// roundTripNN saves an NN classifier with Save and loads it back with Load.
func roundTripNN(t *testing.T, c *NNClassifier) *NNClassifier {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, c); err != nil {
		t.Fatalf("%s: %v", c.Spec.ID(), err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("%s: %v", c.Spec.ID(), err)
	}
	nnc, ok := loaded.(*NNClassifier)
	if !ok {
		t.Fatalf("%s: loaded %T, want *NNClassifier", c.Spec.ID(), loaded)
	}
	return nnc
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("garbage input should error")
	}
}

func TestSaveLoadRandomForest(t *testing.T) {
	train, val := smallData(t, 50)
	spec := Spec{Family: FamilyRF, WindowSize: 50, Trees: 10, MaxDepth: 6}
	clf, _, err := Train(spec, train, val, TrainOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, clf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rfc, ok := loaded.(*RFClassifier)
	if !ok {
		t.Fatalf("loaded %T, want *RFClassifier", loaded)
	}
	if rfc.Spec != spec {
		t.Fatalf("spec mangled: %+v", rfc.Spec)
	}
	if rfc.NumParams() != clf.NumParams() {
		t.Fatal("forest node count changed across the round trip")
	}
	for _, w := range val {
		if clf.Predict(w.Data) != rfc.Predict(w.Data) {
			t.Fatal("loaded forest predicts differently")
		}
		p1, p2 := clf.Probs(w.Data), rfc.Probs(w.Data)
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("forest probabilities differ: %v vs %v", p1, p2)
			}
		}
	}
}

// TestLoadRejectsMangledForest pins the validation path: a structurally
// damaged forest payload must fail Load instead of producing a classifier
// that panics at predict time.
func TestLoadRejectsMangledForest(t *testing.T) {
	train, val := smallData(t, 50)
	clf, _, err := Train(Spec{Family: FamilyRF, WindowSize: 50, Trees: 3, MaxDepth: 4}, train, val, TrainOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := toSaved(clf)
	if err != nil {
		t.Fatal(err)
	}
	sc.Forest.Trees[0].Left[0] = 1 << 20
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sc); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("mangled forest payload accepted")
	}
}

func TestSaveLoadAllNNFamilies(t *testing.T) {
	train, val := smallData(t, 50)
	specs := []Spec{
		{Family: FamilyLSTM, WindowSize: 50, Optimizer: "adam", LR: 3e-3, Dropout: 0.1, LSTMLayers: 1, Hidden: 8},
		{Family: FamilyTransformer, WindowSize: 50, Optimizer: "adamw", LR: 1e-3, Dropout: 0.1, TFLayers: 1, Heads: 2, DModel: 8, FFDim: 16},
	}
	for _, spec := range specs {
		clf, _, err := Train(spec, train, val, TrainOptions{Epochs: 1, BatchSize: 32, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		loaded := roundTripNN(t, clf.(*NNClassifier))
		for _, w := range val[:3] {
			if clf.Predict(w.Data) != loaded.Predict(w.Data) {
				t.Fatalf("%s: divergent predictions after round trip", spec.ID())
			}
		}
	}
}
