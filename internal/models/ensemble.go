package models

import (
	"fmt"
	"sort"
	"strings"

	"cognitivearm/internal/tensor"
)

// Ensemble implements the soft-voting model combinations of §III-C1/§V: any
// subset of the trained CNN/LSTM/Transformer/RF classifiers averages its
// members' class probabilities. The paper's Figure 11 sweeps every
// combination and selects CNN+Transformer as the accuracy/latency sweet spot.
//
// Members may expect different window sizes; each member sees the trailing
// slice of the input window that matches its expected length, so the
// ensemble's WindowSize is the maximum. Save/Load persist an ensemble as its
// members, recursively.
type Ensemble struct {
	Members []Classifier
}

// NewEnsemble creates an ensemble. At least one member is required.
func NewEnsemble(members ...Classifier) (*Ensemble, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("models: ensemble needs at least one member")
	}
	return &Ensemble{Members: members}, nil
}

// memberInput returns the view of x sized for member m: the most recent
// m.WindowSize() rows.
func memberInput(x *tensor.Matrix, want int) *tensor.Matrix {
	if x.Rows == want {
		return x
	}
	if x.Rows < want {
		panic(fmt.Sprintf("models: ensemble input has %d rows, member needs %d", x.Rows, want))
	}
	start := x.Rows - want
	return tensor.FromSlice(want, x.Cols, x.Data[start*x.Cols:])
}

// Probs implements Classifier.
func (e *Ensemble) Probs(x *tensor.Matrix) []float64 {
	var out []float64
	for _, m := range e.Members {
		p := m.Probs(memberInput(x, m.WindowSize()))
		if out == nil {
			out = make([]float64, len(p))
		}
		for i := range p {
			out[i] += p[i]
		}
	}
	inv := 1 / float64(len(e.Members))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// Predict implements Classifier.
func (e *Ensemble) Predict(x *tensor.Matrix) int {
	return tensor.Argmax(e.Probs(x))
}

// NumParams implements Classifier (sum of members).
func (e *Ensemble) NumParams() int {
	total := 0
	for _, m := range e.Members {
		total += m.NumParams()
	}
	return total
}

// WindowSize implements Classifier: the largest member requirement.
func (e *Ensemble) WindowSize() int {
	w := 0
	for _, m := range e.Members {
		if mw := m.WindowSize(); mw > w {
			w = mw
		}
	}
	return w
}

// Name implements Classifier.
func (e *Ensemble) Name() string {
	names := make([]string, len(e.Members))
	for i, m := range e.Members {
		names[i] = m.Name()
	}
	sort.Strings(names)
	return "ensemble{" + strings.Join(names, "+") + "}"
}

// Combinations enumerates every subset of the pool with at least two members
// — the candidate set of Figure 11. Member order within a combination
// follows pool order.
func Combinations(pool []Classifier) []*Ensemble {
	var out []*Ensemble
	n := len(pool)
	for mask := 1; mask < 1<<n; mask++ {
		if popcount(mask) < 2 {
			continue
		}
		var members []Classifier
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				members = append(members, pool[i])
			}
		}
		out = append(out, &Ensemble{Members: members})
	}
	return out
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
