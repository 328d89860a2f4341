// Package evo implements the paper's evolutionary design-space exploration
// (§III-C2, Algorithm 1): a population of model specs evolves under
// tournament selection, crossover and mutation; fitness balances normalised
// validation accuracy against normalised parameter count; the final
// generation yields a Pareto front and a best-model rule with an accuracy
// threshold α.
package evo

import (
	"fmt"
	"sort"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/models"
	"cognitivearm/internal/tensor"
)

// Config mirrors Algorithm 1's inputs.
type Config struct {
	PopulationSize int
	Generations    int
	CrossoverRate  float64
	MutationRate   float64
	TournamentSize int
	// AccuracyWeight / ParamsWeight are w_A and w_P in the fitness score.
	AccuracyWeight float64
	ParamsWeight   float64
	// AccuracyThreshold is α for best-model selection.
	AccuracyThreshold float64
	// Families restricts the search to given families (nil = all).
	Families []models.Family
	// Train controls the per-candidate training budget.
	Train models.TrainOptions
	Seed  uint64
	// Logf, when set, receives per-generation progress lines.
	Logf func(string, ...any)
}

// DefaultConfig returns a CPU-scale configuration of Algorithm 1.
func DefaultConfig() Config {
	return Config{
		PopulationSize:    10,
		Generations:       4,
		CrossoverRate:     0.6,
		MutationRate:      0.35,
		TournamentSize:    3,
		AccuracyWeight:    0.7,
		ParamsWeight:      0.3,
		AccuracyThreshold: 0.85,
		Train:             models.TrainOptions{Epochs: 5, BatchSize: 32, Patience: 2},
		Seed:              1,
	}
}

// Candidate is one evaluated genome.
type Candidate struct {
	Spec     models.Spec
	Accuracy float64
	Params   int
	Fitness  float64
	Clf      models.Classifier
}

// SearchSpace defines the hyperparameter axes of Table III.
type SearchSpace struct {
	WindowSizes   []int
	LearningRates []float64
	Dropouts      []float64

	// CNN axes
	ConvLayers    []int
	Filters       []int
	Kernels       []int
	Strides       []int
	Pools         []string
	CNNOptimizers []string

	// LSTM axes
	LSTMLayers     []int
	Hidden         []int
	LSTMOptimizers []string

	// Transformer axes
	TFLayers []int
	Heads    []int
	DModels  []int
	FFDims   []int

	// RF axes
	Trees     []int
	MaxDepths []int
}

// PaperSearchSpace reproduces Table III. Widths are the paper's; pure-Go
// training on a CPU favours the smaller end of each axis.
func PaperSearchSpace() SearchSpace {
	return SearchSpace{
		WindowSizes:    []int{100, 130, 160, 190, 200},
		LearningRates:  []float64{1e-3, 3e-4, 1e-4, 3e-5, 1e-5},
		Dropouts:       []float64{0.1, 0.2, 0.3, 0.4, 0.5},
		ConvLayers:     []int{1, 2, 3, 4},
		Filters:        []int{8, 16, 32},
		Kernels:        []int{3, 5},
		Strides:        []int{1, 2},
		Pools:          []string{"none", "max", "avg"},
		CNNOptimizers:  []string{"adam", "sgd"},
		LSTMLayers:     []int{1, 2, 3},
		Hidden:         []int{64, 128, 256},
		LSTMOptimizers: []string{"adam", "rmsprop"},
		TFLayers:       []int{2, 3, 4, 6},
		Heads:          []int{2, 4, 8},
		DModels:        []int{64, 128, 256},
		FFDims:         []int{128, 256, 512},
		Trees:          []int{100, 200, 300, 400, 500},
		MaxDepths:      []int{10, 20, 30, 0},
	}
}

// FastSearchSpace is the compute-scaled space used by tests and default
// benches: identical axes, smaller widths.
func FastSearchSpace() SearchSpace {
	s := PaperSearchSpace()
	s.WindowSizes = []int{100, 130, 160, 190}
	s.LearningRates = []float64{3e-3, 1e-3}
	s.ConvLayers = []int{1, 2}
	s.Filters = []int{4, 8, 16, 32}
	s.Hidden = []int{8, 16, 32}
	s.LSTMLayers = []int{1, 2}
	s.TFLayers = []int{1, 2}
	s.Heads = []int{2, 4}
	s.DModels = []int{16, 32}
	s.FFDims = []int{32, 64}
	s.Trees = []int{20, 50, 100, 200}
	s.MaxDepths = []int{6, 10, 20, 0}
	return s
}

func pickInt(rng *tensor.RNG, v []int) int       { return v[rng.Intn(len(v))] }
func pickF(rng *tensor.RNG, v []float64) float64 { return v[rng.Intn(len(v))] }
func pickS(rng *tensor.RNG, v []string) string   { return v[rng.Intn(len(v))] }

// RandomSpec samples one genome of the given family from the space.
func (sp SearchSpace) RandomSpec(f models.Family, rng *tensor.RNG) models.Spec {
	s := models.Spec{Family: f, WindowSize: pickInt(rng, sp.WindowSizes)}
	switch f {
	case models.FamilyCNN:
		s.Optimizer = pickS(rng, sp.CNNOptimizers)
		s.LR = pickF(rng, sp.LearningRates)
		s.Dropout = pickF(rng, sp.Dropouts)
		s.ConvLayers = pickInt(rng, sp.ConvLayers)
		s.Filters = pickInt(rng, sp.Filters)
		s.Kernel = pickInt(rng, sp.Kernels)
		s.Stride = pickInt(rng, sp.Strides)
		s.Pool = pickS(rng, sp.Pools)
	case models.FamilyLSTM:
		s.Optimizer = pickS(rng, sp.LSTMOptimizers)
		s.LR = pickF(rng, sp.LearningRates)
		s.Dropout = pickF(rng, sp.Dropouts)
		s.LSTMLayers = pickInt(rng, sp.LSTMLayers)
		s.Hidden = pickInt(rng, sp.Hidden)
	case models.FamilyTransformer:
		s.Optimizer = "adamw"
		s.LR = pickF(rng, sp.LearningRates)
		s.Dropout = pickF(rng, sp.Dropouts)
		s.TFLayers = pickInt(rng, sp.TFLayers)
		s.Heads = pickInt(rng, sp.Heads)
		// DModel must divide by heads.
		for {
			s.DModel = pickInt(rng, sp.DModels)
			if s.DModel%s.Heads == 0 {
				break
			}
		}
		s.FFDim = pickInt(rng, sp.FFDims)
	case models.FamilyRF:
		s.Trees = pickInt(rng, sp.Trees)
		s.MaxDepth = pickInt(rng, sp.MaxDepths)
	}
	return s
}

// Mutate re-samples one random axis of the spec.
func (sp SearchSpace) Mutate(s models.Spec, rng *tensor.RNG) models.Spec {
	out := s
	switch s.Family {
	case models.FamilyCNN:
		switch rng.Intn(8) {
		case 0:
			out.WindowSize = pickInt(rng, sp.WindowSizes)
		case 1:
			out.LR = pickF(rng, sp.LearningRates)
		case 2:
			out.Dropout = pickF(rng, sp.Dropouts)
		case 3:
			out.ConvLayers = pickInt(rng, sp.ConvLayers)
		case 4:
			out.Filters = pickInt(rng, sp.Filters)
		case 5:
			out.Kernel = pickInt(rng, sp.Kernels)
		case 6:
			out.Stride = pickInt(rng, sp.Strides)
		case 7:
			out.Pool = pickS(rng, sp.Pools)
		}
	case models.FamilyLSTM:
		switch rng.Intn(5) {
		case 0:
			out.WindowSize = pickInt(rng, sp.WindowSizes)
		case 1:
			out.LR = pickF(rng, sp.LearningRates)
		case 2:
			out.Dropout = pickF(rng, sp.Dropouts)
		case 3:
			out.LSTMLayers = pickInt(rng, sp.LSTMLayers)
		case 4:
			out.Hidden = pickInt(rng, sp.Hidden)
		}
	case models.FamilyTransformer:
		switch rng.Intn(6) {
		case 0:
			out.WindowSize = pickInt(rng, sp.WindowSizes)
		case 1:
			out.LR = pickF(rng, sp.LearningRates)
		case 2:
			out.Dropout = pickF(rng, sp.Dropouts)
		case 3:
			out.TFLayers = pickInt(rng, sp.TFLayers)
		case 4:
			for {
				h := pickInt(rng, sp.Heads)
				if out.DModel%h == 0 {
					out.Heads = h
					break
				}
			}
		case 5:
			out.FFDim = pickInt(rng, sp.FFDims)
		}
	case models.FamilyRF:
		if rng.Intn(2) == 0 {
			out.Trees = pickInt(rng, sp.Trees)
		} else {
			out.MaxDepth = pickInt(rng, sp.MaxDepths)
		}
		if rng.Intn(3) == 0 {
			out.WindowSize = pickInt(rng, sp.WindowSizes)
		}
	}
	return out
}

// Crossover mixes two same-family parents field-wise (uniform crossover).
// Cross-family pairs return parent a unchanged.
func Crossover(a, b models.Spec, rng *tensor.RNG) models.Spec {
	if a.Family != b.Family {
		return a
	}
	c := a
	flip := func() bool { return rng.Intn(2) == 0 }
	if flip() {
		c.WindowSize = b.WindowSize
	}
	if flip() {
		c.LR = b.LR
	}
	if flip() {
		c.Dropout = b.Dropout
	}
	if flip() {
		c.Optimizer = b.Optimizer
	}
	switch a.Family {
	case models.FamilyCNN:
		if flip() {
			c.ConvLayers = b.ConvLayers
		}
		if flip() {
			c.Filters = b.Filters
		}
		if flip() {
			c.Kernel = b.Kernel
		}
		if flip() {
			c.Stride = b.Stride
		}
		if flip() {
			c.Pool = b.Pool
		}
	case models.FamilyLSTM:
		if flip() {
			c.LSTMLayers = b.LSTMLayers
		}
		if flip() {
			c.Hidden = b.Hidden
		}
	case models.FamilyTransformer:
		if flip() {
			c.TFLayers = b.TFLayers
		}
		if flip() {
			c.FFDim = b.FFDim
		}
		if flip() && c.DModel%b.Heads == 0 {
			c.Heads = b.Heads
		}
		if flip() && b.DModel%c.Heads == 0 {
			c.DModel = b.DModel
		}
	case models.FamilyRF:
		if flip() {
			c.Trees = b.Trees
		}
		if flip() {
			c.MaxDepth = b.MaxDepth
		}
	}
	return c
}

// Fitness computes the paper's scoring function over a population:
// S = wA·(A−minA)/(maxA−minA) − wP·(P−minP)/(maxP−minP).
func Fitness(pop []Candidate, wA, wP float64) {
	if len(pop) == 0 {
		return
	}
	minA, maxA := pop[0].Accuracy, pop[0].Accuracy
	minP, maxP := float64(pop[0].Params), float64(pop[0].Params)
	for _, c := range pop[1:] {
		if c.Accuracy < minA {
			minA = c.Accuracy
		}
		if c.Accuracy > maxA {
			maxA = c.Accuracy
		}
		p := float64(c.Params)
		if p < minP {
			minP = p
		}
		if p > maxP {
			maxP = p
		}
	}
	rangeA, rangeP := maxA-minA, maxP-minP
	for i := range pop {
		var na, np float64
		if rangeA > 0 {
			na = (pop[i].Accuracy - minA) / rangeA
		}
		if rangeP > 0 {
			np = (float64(pop[i].Params) - minP) / rangeP
		}
		pop[i].Fitness = wA*na - wP*np
	}
}

// ParetoFront returns the non-dominated candidates (maximise accuracy,
// minimise params), sorted by ascending parameter count.
func ParetoFront(pop []Candidate) []Candidate {
	var front []Candidate
	for i, c := range pop {
		dominated := false
		for j, d := range pop {
			if i == j {
				continue
			}
			if d.Accuracy > c.Accuracy && d.Params <= c.Params {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, c)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].Params != front[j].Params {
			return front[i].Params < front[j].Params
		}
		return front[i].Accuracy > front[j].Accuracy
	})
	return front
}

// BestModel applies the paper's selection rule: the smallest Pareto model
// meeting the accuracy threshold α, else the most accurate one.
func BestModel(front []Candidate, alpha float64) (Candidate, error) {
	if len(front) == 0 {
		return Candidate{}, fmt.Errorf("evo: empty Pareto front")
	}
	best := -1
	for i, c := range front {
		if c.Accuracy >= alpha {
			if best < 0 || c.Params < front[best].Params {
				best = i
			}
		}
	}
	if best >= 0 {
		return front[best], nil
	}
	best = 0
	for i, c := range front {
		if c.Accuracy > front[best].Accuracy {
			best = i
		}
	}
	return front[best], nil
}

// Result bundles a finished search.
type Result struct {
	Population []Candidate // final generation, evaluated
	History    [][]Candidate
	Front      []Candidate
	Best       Candidate
}

// Search runs Algorithm 1. Windows must be labelled data grouped per window
// size: the provided builder is invoked lazily the first time a window size
// is needed, letting the search sweep the window axis without precomputing
// every segmentation.
func Search(cfg Config, data func(windowSize int) (train, val []dataset.Window, err error)) (*Result, error) {
	if cfg.PopulationSize < 2 {
		return nil, fmt.Errorf("evo: population size %d too small", cfg.PopulationSize)
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	space := FastSearchSpace()
	families := cfg.Families
	if len(families) == 0 {
		families = models.Families()
	}
	rng := tensor.NewRNG(cfg.Seed + 0xEE0)
	cache := map[int][2][]dataset.Window{}
	getData := func(w int) ([]dataset.Window, []dataset.Window, error) {
		if d, ok := cache[w]; ok {
			return d[0], d[1], nil
		}
		tr, va, err := data(w)
		if err != nil {
			return nil, nil, err
		}
		cache[w] = [2][]dataset.Window{tr, va}
		return tr, va, nil
	}

	evaluate := func(s models.Spec) (Candidate, error) {
		tr, va, err := getData(s.WindowSize)
		if err != nil {
			return Candidate{}, err
		}
		opt := cfg.Train
		opt.Seed = rng.Uint64()
		clf, res, err := models.Train(s, tr, va, opt)
		if err != nil {
			return Candidate{}, err
		}
		return Candidate{Spec: s, Accuracy: res.ValAcc, Params: clf.NumParams(), Clf: clf}, nil
	}

	// Initial population: round-robin over families for coverage.
	pop := make([]Candidate, 0, cfg.PopulationSize)
	for i := 0; i < cfg.PopulationSize; i++ {
		f := families[i%len(families)]
		spec := space.RandomSpec(f, rng)
		c, err := evaluate(spec)
		if err != nil {
			// Invalid genome (e.g. collapsing conv stack): resample.
			i--
			continue
		}
		pop = append(pop, c)
	}

	res := &Result{}
	for g := 0; g < cfg.Generations; g++ {
		Fitness(pop, cfg.AccuracyWeight, cfg.ParamsWeight)
		res.History = append(res.History, append([]Candidate(nil), pop...))
		logf("generation %d: best fitness %.3f", g, maxFitness(pop))

		next := make([]Candidate, 0, cfg.PopulationSize)
		// Elitism: carry the single fittest genome forward unchanged.
		next = append(next, fittest(pop))
		for len(next) < cfg.PopulationSize {
			p1 := tournament(pop, cfg.TournamentSize, rng)
			child := p1.Spec
			if rng.Float64() < cfg.CrossoverRate {
				p2 := tournament(pop, cfg.TournamentSize, rng)
				child = Crossover(child, p2.Spec, rng)
			}
			if rng.Float64() < cfg.MutationRate {
				child = space.Mutate(child, rng)
			}
			c, err := evaluate(child)
			if err != nil {
				continue
			}
			next = append(next, c)
		}
		pop = next
	}
	Fitness(pop, cfg.AccuracyWeight, cfg.ParamsWeight)
	res.Population = pop
	res.Front = ParetoFront(pop)
	best, err := BestModel(res.Front, cfg.AccuracyThreshold)
	if err != nil {
		return nil, err
	}
	res.Best = best
	return res, nil
}

func maxFitness(pop []Candidate) float64 {
	best := pop[0].Fitness
	for _, c := range pop[1:] {
		if c.Fitness > best {
			best = c.Fitness
		}
	}
	return best
}

func fittest(pop []Candidate) Candidate {
	best := pop[0]
	for _, c := range pop[1:] {
		if c.Fitness > best.Fitness {
			best = c
		}
	}
	return best
}

func tournament(pop []Candidate, k int, rng *tensor.RNG) Candidate {
	if k < 1 {
		k = 1
	}
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := pop[rng.Intn(len(pop))]
		if c.Fitness > best.Fitness {
			best = c
		}
	}
	return best
}
