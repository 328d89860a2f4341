// Package rf implements the Random-Forest classifier of the paper's model
// pool (Table III: 100–500 trees, depth 10–None, statistical features). It
// is a from-scratch CART ensemble: Gini-impurity splits, bootstrap bagging,
// and √d feature subsampling at every node.
package rf

import (
	"fmt"
	"math"
	"sort"

	"cognitivearm/internal/tensor"
)

// node is one tree node; leaves carry class counts.
type node struct {
	feature   int
	threshold float64
	left      *node
	right     *node
	counts    []float64 // leaf class distribution (normalised)
}

func (n *node) isLeaf() bool { return n.left == nil }

// Tree is a single CART decision tree.
type Tree struct {
	root    *node
	classes int
	nodes   int
}

// Config controls forest construction.
type Config struct {
	// Trees is the number of estimators (paper sweeps 100–500).
	Trees int
	// MaxDepth limits tree depth; 0 means unlimited (Table III "None").
	MaxDepth int
	// MinSamplesSplit is the smallest node that may still split.
	MinSamplesSplit int
	// FeatureFraction overrides the default √d feature subsample when > 0.
	FeatureFraction float64
	// Seed drives all randomness (bootstraps, feature subsets).
	Seed uint64
}

// DefaultConfig mirrors the paper's selected forest: 200 estimators,
// depth 20.
func DefaultConfig() Config {
	return Config{Trees: 200, MaxDepth: 20, MinSamplesSplit: 2, Seed: 1}
}

// Forest is a trained random forest.
type Forest struct {
	Trees   []Tree
	Classes int
	Feats   int
}

// Fit trains a forest on feature vectors X (n×d) with labels y in [0,
// classes).
func Fit(X [][]float64, y []int, classes int, cfg Config) (*Forest, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("rf: bad training set (%d rows, %d labels)", len(X), len(y))
	}
	if cfg.Trees <= 0 {
		return nil, fmt.Errorf("rf: need at least one tree")
	}
	if cfg.MinSamplesSplit < 2 {
		cfg.MinSamplesSplit = 2
	}
	d := len(X[0])
	mtry := int(math.Sqrt(float64(d)))
	if cfg.FeatureFraction > 0 {
		mtry = int(cfg.FeatureFraction * float64(d))
	}
	if mtry < 1 {
		mtry = 1
	}
	rng := tensor.NewRNG(cfg.Seed + 0xF0F0)
	f := &Forest{Classes: classes, Feats: d}
	for t := 0; t < cfg.Trees; t++ {
		treeRng := rng.Fork()
		// Bootstrap sample.
		idx := make([]int, len(X))
		for i := range idx {
			idx[i] = treeRng.Intn(len(X))
		}
		tree := Tree{classes: classes}
		tree.root = tree.grow(X, y, idx, 0, cfg, mtry, treeRng)
		f.Trees = append(f.Trees, tree)
	}
	return f, nil
}

// grow recursively builds a subtree over the sample indices idx.
func (t *Tree) grow(X [][]float64, y []int, idx []int, depth int, cfg Config, mtry int, rng *tensor.RNG) *node {
	t.nodes++
	counts := make([]float64, t.classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	total := float64(len(idx))
	pure := false
	for _, c := range counts {
		if c == total {
			pure = true
		}
	}
	if pure || len(idx) < cfg.MinSamplesSplit || (cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) {
		return leafNode(counts, total)
	}

	bestGain := 0.0
	bestFeat, bestThr := -1, 0.0
	parentGini := gini(counts, total)
	// Feature subsample without replacement.
	feats := rng.Perm(len(X[idx[0]]))[:mtry]
	vals := make([]float64, 0, len(idx))
	for _, feat := range feats {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, X[i][feat])
		}
		sort.Float64s(vals)
		// Candidate thresholds: midpoints of up to 16 quantile gaps.
		steps := 16
		if len(vals) < steps {
			steps = len(vals) - 1
		}
		for s := 1; s <= steps; s++ {
			lo := vals[(s-1)*len(vals)/(steps+1)]
			hi := vals[s*len(vals)/(steps+1)]
			if lo == hi {
				continue
			}
			thr := (lo + hi) / 2
			lc := make([]float64, t.classes)
			rc := make([]float64, t.classes)
			var ln, rn float64
			for _, i := range idx {
				if X[i][feat] <= thr {
					lc[y[i]]++
					ln++
				} else {
					rc[y[i]]++
					rn++
				}
			}
			if ln == 0 || rn == 0 {
				continue
			}
			gain := parentGini - (ln/total)*gini(lc, ln) - (rn/total)*gini(rc, rn)
			if gain > bestGain {
				bestGain, bestFeat, bestThr = gain, feat, thr
			}
		}
	}
	if bestFeat < 0 || bestGain < 1e-12 {
		return leafNode(counts, total)
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][bestFeat] <= bestThr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	return &node{
		feature:   bestFeat,
		threshold: bestThr,
		left:      t.grow(X, y, li, depth+1, cfg, mtry, rng),
		right:     t.grow(X, y, ri, depth+1, cfg, mtry, rng),
	}
}

func leafNode(counts []float64, total float64) *node {
	norm := make([]float64, len(counts))
	if total > 0 {
		for i, c := range counts {
			norm[i] = c / total
		}
	}
	return &node{counts: norm}
}

func gini(counts []float64, total float64) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := c / total
		g -= p * p
	}
	return g
}

// predict returns the leaf distribution for x.
func (t *Tree) predict(x []float64) []float64 {
	n := t.root
	for !n.isLeaf() {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.counts
}

// Nodes returns the node count of the tree.
func (t *Tree) Nodes() int { return t.nodes }

// Probs averages leaf distributions across all trees (soft voting).
func (f *Forest) Probs(x []float64) []float64 {
	out := make([]float64, f.Classes)
	for i := range f.Trees {
		p := f.Trees[i].predict(x)
		for c := range out {
			out[c] += p[c]
		}
	}
	inv := 1 / float64(len(f.Trees))
	for c := range out {
		out[c] *= inv
	}
	return out
}

// Predict returns the majority class for x.
func (f *Forest) Predict(x []float64) int {
	return tensor.Argmax(f.Probs(x))
}

// ProbsBatchWS computes soft-voting probabilities for a batch of feature
// vectors in tree-major order: each tree routes every sample before the next
// tree is touched, keeping that tree's nodes hot in cache across the whole
// batch. Sample-major traversal (Probs in a loop) re-walks all ~NodeCount
// nodes per sample; tree-major amortises those misses over the batch, which
// is the locality win the serving hub's cross-session batching harvests. The
// probability rows and their shared flat backing come from ws, so a serving
// shard that resets one workspace per tick pays no allocations here; they
// are valid until its next Reset.
func (f *Forest) ProbsBatchWS(ws *tensor.Workspace, X [][]float64) [][]float64 {
	out := ws.FloatRows(len(X))
	flat := ws.Floats(len(X) * f.Classes) // zeroed: accumulates votes below
	for i := range out {
		out[i] = flat[i*f.Classes : (i+1)*f.Classes : (i+1)*f.Classes]
	}
	for t := range f.Trees {
		for i, x := range X {
			p := f.Trees[t].predict(x)
			row := out[i]
			for c := range row {
				row[c] += p[c]
			}
		}
	}
	inv := 1 / float64(len(f.Trees))
	for i := range flat {
		flat[i] *= inv
	}
	return out
}

// PredictBatchWS returns the majority class for every sample via the
// tree-major path, drawing every temporary from ws and writing labels into
// dst when it has capacity (dst may be nil). See ProbsBatchWS.
func (f *Forest) PredictBatchWS(ws *tensor.Workspace, X [][]float64, dst []int) []int {
	probs := f.ProbsBatchWS(ws, X)
	if cap(dst) < len(X) {
		dst = make([]int, len(X))
	}
	dst = dst[:len(X)]
	for i, p := range probs {
		dst[i] = tensor.Argmax(p)
	}
	return dst
}

// NodeCount totals nodes across all trees — the forest's "parameter count"
// used on the paper's Pareto plots (Fig. 9/10 report ~72000 nodes for the
// selected forest).
func (f *Forest) NodeCount() int {
	total := 0
	for i := range f.Trees {
		total += f.Trees[i].Nodes()
	}
	return total
}

// Accuracy scores the forest on a labelled set.
func (f *Forest) Accuracy(X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	correct := 0
	for i := range X {
		if f.Predict(X[i]) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}
