package rf

import (
	"reflect"
	"testing"

	"cognitivearm/internal/tensor"
)

func trainedForest(t *testing.T) (*Forest, [][]float64) {
	t.Helper()
	rng := tensor.NewRNG(5)
	X := make([][]float64, 200)
	y := make([]int, len(X))
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if X[i][0]+X[i][2] > 0 {
			y[i] = 1
		} else if X[i][1] < -0.5 {
			y[i] = 2
		}
	}
	f, err := Fit(X, y, 3, Config{Trees: 15, MaxDepth: 6, MinSamplesSplit: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return f, X
}

func TestExportFromDataRoundTrip(t *testing.T) {
	f, X := trainedForest(t)
	g, err := FromData(f.Export())
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != f.NodeCount() {
		t.Fatalf("node count %d after round trip, want %d", g.NodeCount(), f.NodeCount())
	}
	for i, x := range X {
		p1, p2 := f.Probs(x), g.Probs(x)
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("sample %d probs diverge: %v vs %v", i, p1, p2)
		}
	}
	// Tree-major batch path agrees too.
	b1, b2 := f.PredictBatchWS(tensor.NewWorkspace(), X, nil), g.PredictBatchWS(tensor.NewWorkspace(), X, nil)
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("batched predictions diverge after round trip")
	}
}

func TestFromDataRejectsCorruption(t *testing.T) {
	f, _ := trainedForest(t)
	cases := []struct {
		name   string
		mutate func(*ForestData)
	}{
		{"nil", func(d *ForestData) { *d = ForestData{} }},
		{"no classes", func(d *ForestData) { d.Classes = 0 }},
		{"child out of range", func(d *ForestData) { d.Trees[0].Left[0] = 1 << 20 }},
		{"child cycle", func(d *ForestData) {
			if d.Trees[0].Left[0] > 0 { // point an internal node back at the root
				d.Trees[0].Left[0] = 0
			}
		}},
		{"ragged arrays", func(d *ForestData) { d.Trees[0].Threshold = d.Trees[0].Threshold[:1] }},
		{"bad feature", func(d *ForestData) { d.Trees[0].Feature[0] = 99 }},
		{"short leaf counts", func(d *ForestData) {
			td := &d.Trees[0]
			for i := range td.Counts {
				if td.Counts[i] != nil {
					td.Counts[i] = td.Counts[i][:1]
					return
				}
			}
		}},
	}
	for _, tc := range cases {
		d := f.Export()
		tc.mutate(d)
		if _, err := FromData(d); err == nil {
			t.Fatalf("%s: corrupted forest data accepted", tc.name)
		}
	}
}
