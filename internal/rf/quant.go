package rf

import (
	"math"

	"cognitivearm/internal/tensor"
)

// QForest is the int16 threshold-quantized inference twin of Forest. Each
// tree is flattened into struct-of-arrays form (features, int16 thresholds,
// child indices) so traversal walks contiguous memory instead of chasing node
// pointers, and every feature value is quantized once per sample onto the
// same int16 grid as the thresholds (tensor.I16Map, floor-quantized and
// monotone, so a quantized comparison can only diverge from f64 on near-tie
// thresholds). Leaf distributions stay exact f64. Inference-only and
// approximate — serving gates it behind an agreement check against the exact
// forest.
type QForest struct {
	Classes int
	Feats   int
	Maps    []tensor.I16Map // per-feature value↔threshold grid
	Trees   []qTree
}

// qTree is one flattened tree. Node 0 is the root; feature[n] < 0 marks a
// leaf whose class distribution is counts[leaf[n]*Classes : ...].
type qTree struct {
	feature []int32
	thr     []int16
	left    []int32
	right   []int32
	leaf    []int32
	counts  []float64
}

// Quantize flattens and threshold-quantizes the forest. The per-feature grid
// spans the min..max threshold observed for that feature across all trees
// (values clamp into that range, which preserves every comparison's order);
// features never used in a split get a degenerate constant map.
func (f *Forest) Quantize() *QForest {
	lo := make([]float64, f.Feats)
	hi := make([]float64, f.Feats)
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for i := range f.Trees {
		walkThresholds(f.Trees[i].root, lo, hi)
	}
	q := &QForest{Classes: f.Classes, Feats: f.Feats, Maps: make([]tensor.I16Map, f.Feats)}
	for i := range q.Maps {
		if lo[i] <= hi[i] {
			q.Maps[i] = tensor.NewI16Map(lo[i], hi[i])
		}
	}
	q.Trees = make([]qTree, len(f.Trees))
	for i := range f.Trees {
		q.Trees[i] = flattenQTree(&f.Trees[i], q.Maps, f.Classes)
	}
	return q
}

func walkThresholds(n *node, lo, hi []float64) {
	if n == nil || n.isLeaf() {
		return
	}
	if n.threshold < lo[n.feature] {
		lo[n.feature] = n.threshold
	}
	if n.threshold > hi[n.feature] {
		hi[n.feature] = n.threshold
	}
	walkThresholds(n.left, lo, hi)
	walkThresholds(n.right, lo, hi)
}

func flattenQTree(t *Tree, maps []tensor.I16Map, classes int) qTree {
	q := qTree{
		feature: make([]int32, 0, t.nodes),
		thr:     make([]int16, 0, t.nodes),
		left:    make([]int32, 0, t.nodes),
		right:   make([]int32, 0, t.nodes),
		leaf:    make([]int32, 0, t.nodes),
	}
	var flatten func(n *node) int32
	flatten = func(n *node) int32 {
		id := int32(len(q.feature))
		q.feature = append(q.feature, -1)
		q.thr = append(q.thr, 0)
		q.left = append(q.left, -1)
		q.right = append(q.right, -1)
		q.leaf = append(q.leaf, -1)
		if n.isLeaf() {
			q.leaf[id] = int32(len(q.counts) / classes)
			q.counts = append(q.counts, n.counts...)
			return id
		}
		q.feature[id] = int32(n.feature)
		q.thr[id] = maps[n.feature].Quantize(n.threshold)
		q.left[id] = flatten(n.left)
		q.right[id] = flatten(n.right)
		return id
	}
	flatten(t.root)
	return q
}

// ProbsBatchWS computes soft-voting probabilities for a batch over the
// quantized trees, tree-major like Forest.ProbsBatchWS. Every temporary —
// the int16 feature rows and the vote accumulators — comes from ws.
func (q *QForest) ProbsBatchWS(ws *tensor.Workspace, X [][]float64) [][]float64 {
	out := ws.FloatRows(len(X))
	flat := ws.Floats(len(X) * q.Classes)
	for i := range out {
		out[i] = flat[i*q.Classes : (i+1)*q.Classes : (i+1)*q.Classes]
	}
	xq := ws.Int16s(len(X) * q.Feats)
	for i, x := range X {
		tensor.QuantizeRowI16(xq[i*q.Feats:(i+1)*q.Feats], x, q.Maps)
	}
	for t := range q.Trees {
		tr := &q.Trees[t]
		for i := range X {
			row := xq[i*q.Feats : (i+1)*q.Feats]
			n := int32(0)
			for tr.feature[n] >= 0 {
				if row[tr.feature[n]] <= tr.thr[n] {
					n = tr.left[n]
				} else {
					n = tr.right[n]
				}
			}
			counts := tr.counts[tr.leaf[n]*int32(q.Classes) : (tr.leaf[n]+1)*int32(q.Classes)]
			acc := out[i]
			for c := range acc {
				acc[c] += counts[c]
			}
		}
	}
	inv := 1 / float64(len(q.Trees))
	for i := range flat {
		flat[i] *= inv
	}
	return out
}

// PredictBatchWS returns the majority class per sample via the quantized
// tree-major path, writing into dst when it has capacity.
func (q *QForest) PredictBatchWS(ws *tensor.Workspace, X [][]float64, dst []int) []int {
	probs := q.ProbsBatchWS(ws, X)
	if cap(dst) < len(X) {
		dst = make([]int, len(X))
	}
	dst = dst[:len(X)]
	for i, p := range probs {
		dst[i] = tensor.Argmax(p)
	}
	return dst
}

// NodeCount mirrors Forest.NodeCount for the quantized twin.
func (q *QForest) NodeCount() int {
	total := 0
	for i := range q.Trees {
		total += len(q.Trees[i].feature)
	}
	return total
}
