package rf

import (
	"testing"

	"cognitivearm/internal/tensor"
)

// gaussianBlobs builds a 3-class separable dataset.
func gaussianBlobs(n int, seed uint64) ([][]float64, []int) {
	rng := tensor.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	centers := [][]float64{{0, 0, 3}, {3, 0, 0}, {0, 3, 0}}
	for i := range X {
		c := rng.Intn(3)
		y[i] = c
		X[i] = make([]float64, 3)
		for j := range X[i] {
			X[i][j] = centers[c][j] + 0.5*rng.NormFloat64()
		}
	}
	return X, y
}

func TestFitAndPredict(t *testing.T) {
	X, y := gaussianBlobs(300, 1)
	f, err := Fit(X, y, 3, Config{Trees: 30, MaxDepth: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if acc := f.Accuracy(X, y); acc < 0.95 {
		t.Fatalf("train accuracy %v on separable blobs", acc)
	}
	Xt, yt := gaussianBlobs(100, 3)
	if acc := f.Accuracy(Xt, yt); acc < 0.9 {
		t.Fatalf("test accuracy %v", acc)
	}
}

func TestProbsSumToOne(t *testing.T) {
	X, y := gaussianBlobs(100, 4)
	f, _ := Fit(X, y, 3, Config{Trees: 10, MaxDepth: 5, Seed: 5})
	p := f.Probs(X[0])
	var s float64
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("prob out of range: %v", p)
		}
		s += v
	}
	if s < 0.999 || s > 1.001 {
		t.Fatalf("probs sum to %v", s)
	}
}

// treeDepth is the depth of the exported tree below node i: the number of
// splits on its longest root-to-leaf path.
func treeDepth(td TreeData, i int32) int {
	if td.Left[i] < 0 {
		return 0
	}
	return 1 + max(treeDepth(td, td.Left[i]), treeDepth(td, td.Right[i]))
}

func TestDepthLimitRespected(t *testing.T) {
	X, y := gaussianBlobs(300, 6)
	for _, depth := range []int{1, 3, 5} {
		f, _ := Fit(X, y, 3, Config{Trees: 5, MaxDepth: depth, Seed: 7})
		for _, td := range f.Export().Trees {
			if d := treeDepth(td, 0); d > depth {
				t.Fatalf("tree depth %d exceeds limit %d", d, depth)
			}
		}
	}
}

func TestUnlimitedDepthGrowsDeeper(t *testing.T) {
	X, y := gaussianBlobs(400, 8)
	shallow, _ := Fit(X, y, 3, Config{Trees: 5, MaxDepth: 2, Seed: 9})
	deep, _ := Fit(X, y, 3, Config{Trees: 5, MaxDepth: 0, Seed: 9})
	if deep.NodeCount() <= shallow.NodeCount() {
		t.Fatalf("unlimited forest (%d nodes) should outgrow depth-2 (%d)",
			deep.NodeCount(), shallow.NodeCount())
	}
}

func TestNodeCountScalesWithTrees(t *testing.T) {
	X, y := gaussianBlobs(200, 10)
	small, _ := Fit(X, y, 3, Config{Trees: 5, MaxDepth: 6, Seed: 11})
	big, _ := Fit(X, y, 3, Config{Trees: 20, MaxDepth: 6, Seed: 11})
	if big.NodeCount() <= small.NodeCount() {
		t.Fatal("more trees should mean more nodes")
	}
}

func TestDeterminism(t *testing.T) {
	X, y := gaussianBlobs(150, 12)
	a, _ := Fit(X, y, 3, Config{Trees: 8, MaxDepth: 6, Seed: 13})
	b, _ := Fit(X, y, 3, Config{Trees: 8, MaxDepth: 6, Seed: 13})
	for i := range X {
		pa, pb := a.Probs(X[i]), b.Probs(X[i])
		for c := range pa {
			if pa[c] != pb[c] {
				t.Fatal("same seed must give identical forests")
			}
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := Fit(nil, nil, 3, DefaultConfig()); err == nil {
		t.Fatal("empty set should error")
	}
	X, y := gaussianBlobs(10, 14)
	if _, err := Fit(X, y[:5], 3, DefaultConfig()); err == nil {
		t.Fatal("mismatched labels should error")
	}
	if _, err := Fit(X, y, 3, Config{Trees: 0}); err == nil {
		t.Fatal("zero trees should error")
	}
}

func TestPureNodeBecomesLeaf(t *testing.T) {
	// All one class: root must be a leaf predicting it with certainty.
	X := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	f, err := Fit(X, y, 2, Config{Trees: 3, MaxDepth: 5, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if f.NodeCount() != 3 {
		t.Fatalf("pure data should give 3 single-leaf trees, got %d nodes", f.NodeCount())
	}
	if f.Predict([]float64{9}) != 1 {
		t.Fatal("wrong prediction on pure data")
	}
}

func TestConstantFeaturesFallToLeaf(t *testing.T) {
	// Identical feature vectors but mixed labels: no split possible.
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	y := []int{0, 1, 0, 1}
	f, err := Fit(X, y, 2, Config{Trees: 2, MaxDepth: 5, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	p := f.Probs([]float64{1, 1})
	if p[0] < 0.2 || p[0] > 0.8 {
		t.Fatalf("unsplittable data should give mixed leaf, got %v", p)
	}
}
