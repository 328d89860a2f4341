package models

import (
	"bytes"
	"math"
	"testing"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/rf"
	"cognitivearm/internal/tensor"
)

// fixedClf is a stub classifier returning constant probabilities.
type fixedClf struct {
	probs  []float64
	params int
	window int
	name   string
}

func (f *fixedClf) Predict(x *tensor.Matrix) int     { return tensor.Argmax(f.probs) }
func (f *fixedClf) Probs(x *tensor.Matrix) []float64 { return append([]float64(nil), f.probs...) }
func (f *fixedClf) NumParams() int                   { return f.params }
func (f *fixedClf) WindowSize() int                  { return f.window }
func (f *fixedClf) Name() string                     { return f.name }

func TestNewRequiresMembers(t *testing.T) {
	if _, err := NewEnsemble(); err == nil {
		t.Fatal("empty ensemble should error")
	}
}

func TestSoftVotingAverages(t *testing.T) {
	a := &fixedClf{probs: []float64{0.8, 0.1, 0.1}, params: 10, window: 4, name: "a"}
	b := &fixedClf{probs: []float64{0.2, 0.7, 0.1}, params: 20, window: 4, name: "b"}
	e, err := NewEnsemble(a, b)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 2)
	p := e.Probs(x)
	want := []float64{0.5, 0.4, 0.1}
	for i := range want {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Fatalf("probs %v want %v", p, want)
		}
	}
	if e.Predict(x) != 0 {
		t.Fatalf("predict %d", e.Predict(x))
	}
	if e.NumParams() != 30 {
		t.Fatalf("params %d", e.NumParams())
	}
}

func TestEnsembleOutvotesBadMember(t *testing.T) {
	good1 := &fixedClf{probs: []float64{0.1, 0.8, 0.1}, window: 4, name: "g1"}
	good2 := &fixedClf{probs: []float64{0.2, 0.6, 0.2}, window: 4, name: "g2"}
	bad := &fixedClf{probs: []float64{0.6, 0.2, 0.2}, window: 4, name: "bad"}
	e, _ := NewEnsemble(good1, good2, bad)
	if e.Predict(tensor.New(4, 2)) != 1 {
		t.Fatal("majority should win soft vote")
	}
}

func TestWindowSizeIsMax(t *testing.T) {
	a := &fixedClf{probs: []float64{1, 0}, window: 90, name: "a"}
	b := &fixedClf{probs: []float64{1, 0}, window: 190, name: "b"}
	e, _ := NewEnsemble(a, b)
	if e.WindowSize() != 190 {
		t.Fatalf("window %d", e.WindowSize())
	}
}

func TestMemberInputSlicing(t *testing.T) {
	x := tensor.New(6, 2)
	for i := 0; i < 6; i++ {
		x.Set(i, 0, float64(i))
	}
	v := memberInput(x, 3)
	if v.Rows != 3 || v.At(0, 0) != 3 || v.At(2, 0) != 5 {
		t.Fatalf("trailing slice wrong: %+v", v.Data)
	}
	if memberInput(x, 6) != x {
		t.Fatal("exact size should return the same matrix")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short input should panic")
		}
	}()
	memberInput(x, 10)
}

func TestCombinations(t *testing.T) {
	pool := []Classifier{
		&fixedClf{probs: []float64{1, 0}, window: 4, name: "a"},
		&fixedClf{probs: []float64{1, 0}, window: 4, name: "b"},
		&fixedClf{probs: []float64{1, 0}, window: 4, name: "c"},
		&fixedClf{probs: []float64{1, 0}, window: 4, name: "d"},
	}
	combos := Combinations(pool)
	// C(4,2)+C(4,3)+C(4,4) = 6+4+1 = 11
	if len(combos) != 11 {
		t.Fatalf("combinations %d want 11", len(combos))
	}
	names := map[string]bool{}
	for _, e := range combos {
		if len(e.Members) < 2 {
			t.Fatal("singleton leaked into combinations")
		}
		if names[e.Name()] {
			t.Fatalf("duplicate combination %s", e.Name())
		}
		names[e.Name()] = true
	}
}

// TestEnsembleSaveLoadRoundTrip: Save writes a mixed NN+forest ensemble as
// its members, and Load reassembles it with bitwise-identical soft votes.
func TestEnsembleSaveLoadRoundTrip(t *testing.T) {
	const window = 40
	nnSpec := Spec{Family: FamilyCNN, WindowSize: window, Optimizer: "adam", LR: 1e-3,
		ConvLayers: 1, Filters: 4, Kernel: 5, Stride: 2, Pool: "none"}
	net, err := BuildNet(nnSpec, 13)
	if err != nil {
		t.Fatal(err)
	}
	cnn := &NNClassifier{Net: net, Spec: nnSpec}

	rng := tensor.NewRNG(21)
	nFeats := len(featVec(window, rng))
	X := make([][]float64, 80)
	y := make([]int, len(X))
	for i := range X {
		X[i] = make([]float64, nFeats)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
		y[i] = i % eeg.NumActions
	}
	forest, err := rf.Fit(X, y, eeg.NumActions, rf.Config{Trees: 5, MaxDepth: 4, MinSamplesSplit: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rfc := &RFClassifier{Forest: forest, Spec: Spec{Family: FamilyRF, WindowSize: window, Trees: 5, MaxDepth: 4}}

	orig, err := NewEnsemble(cnn, rfc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ens, ok := loaded.(*Ensemble)
	if !ok {
		t.Fatalf("loaded %T, want *Ensemble", loaded)
	}
	if len(ens.Members) != 2 {
		t.Fatalf("%d members after round trip, want 2", len(ens.Members))
	}
	if ens.Name() != orig.Name() {
		t.Fatalf("name %q, want %q", ens.Name(), orig.Name())
	}
	for trial := 0; trial < 5; trial++ {
		x := tensor.New(window, eeg.NumChannels)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		p1, p2 := orig.Probs(x), ens.Probs(x)
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("ensemble probs diverge after round trip: %v vs %v", p1, p2)
			}
		}
	}
}

// featVec returns a representative feature vector so the test forest is fit
// over the same dimensionality RFClassifier extracts at predict time.
func featVec(window int, rng *tensor.RNG) []float64 {
	x := tensor.New(window, eeg.NumChannels)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return dataset.FeatureVector(dataset.Window{Data: x})
}
