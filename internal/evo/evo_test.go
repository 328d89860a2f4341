package evo

import (
	"testing"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/models"
	"cognitivearm/internal/tensor"
)

func TestFitnessNormalisation(t *testing.T) {
	pop := []Candidate{
		{Accuracy: 0.9, Params: 1000},
		{Accuracy: 0.5, Params: 100},
		{Accuracy: 0.7, Params: 550},
	}
	Fitness(pop, 0.7, 0.3)
	// Highest accuracy but largest params: 0.7·1 − 0.3·1 = 0.4
	if diff := pop[0].Fitness - 0.4; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("fitness[0]=%v want 0.4", pop[0].Fitness)
	}
	// Lowest accuracy, smallest params: 0 − 0 = 0
	if pop[1].Fitness != 0 {
		t.Fatalf("fitness[1]=%v want 0", pop[1].Fitness)
	}
}

func TestFitnessDegenerate(t *testing.T) {
	pop := []Candidate{{Accuracy: 0.5, Params: 10}, {Accuracy: 0.5, Params: 10}}
	Fitness(pop, 0.7, 0.3)
	for _, c := range pop {
		if c.Fitness != 0 {
			t.Fatalf("identical population should have zero fitness, got %v", c.Fitness)
		}
	}
	Fitness(nil, 1, 1) // must not panic
}

func TestParetoFront(t *testing.T) {
	pop := []Candidate{
		{Accuracy: 0.9, Params: 1000},  // front
		{Accuracy: 0.8, Params: 100},   // front
		{Accuracy: 0.7, Params: 500},   // dominated by (0.8, 100)
		{Accuracy: 0.95, Params: 5000}, // front
		{Accuracy: 0.6, Params: 100},   // dominated by (0.8, 100)
	}
	front := ParetoFront(pop)
	if len(front) != 3 {
		t.Fatalf("front size %d want 3: %+v", len(front), front)
	}
	// Sorted by params ascending.
	for i := 1; i < len(front); i++ {
		if front[i].Params < front[i-1].Params {
			t.Fatal("front not sorted by params")
		}
	}
	// No member dominates another.
	for i, a := range front {
		for j, b := range front {
			if i != j && b.Accuracy > a.Accuracy && b.Params <= a.Params {
				t.Fatal("dominated candidate on front")
			}
		}
	}
}

func TestBestModelRule(t *testing.T) {
	front := []Candidate{
		{Accuracy: 0.80, Params: 100},
		{Accuracy: 0.88, Params: 500},
		{Accuracy: 0.93, Params: 2000},
	}
	// α=0.85: smallest meeting it is the 500-param model.
	best, err := BestModel(front, 0.85)
	if err != nil || best.Params != 500 {
		t.Fatalf("best %+v err %v", best, err)
	}
	// α=0.99 unreachable: fall back to most accurate.
	best, _ = BestModel(front, 0.99)
	if best.Params != 2000 {
		t.Fatalf("fallback best %+v", best)
	}
	if _, err := BestModel(nil, 0.5); err == nil {
		t.Fatal("empty front should error")
	}
}

func TestCrossoverSameFamilyFieldsComeFromParents(t *testing.T) {
	rng := tensor.NewRNG(3)
	a := models.Spec{Family: models.FamilyCNN, WindowSize: 100, LR: 1e-3, ConvLayers: 1, Filters: 8, Kernel: 3, Stride: 1, Pool: "none", Optimizer: "adam", Dropout: 0.1}
	b := models.Spec{Family: models.FamilyCNN, WindowSize: 190, LR: 3e-3, ConvLayers: 2, Filters: 32, Kernel: 5, Stride: 2, Pool: "avg", Optimizer: "sgd", Dropout: 0.5}
	for i := 0; i < 50; i++ {
		c := Crossover(a, b, rng)
		if c.WindowSize != a.WindowSize && c.WindowSize != b.WindowSize {
			t.Fatal("crossover invented a window size")
		}
		if c.Filters != a.Filters && c.Filters != b.Filters {
			t.Fatal("crossover invented a filter count")
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("crossover produced invalid spec: %v", err)
		}
	}
}

func TestCrossoverCrossFamilyIsIdentity(t *testing.T) {
	rng := tensor.NewRNG(4)
	a := models.Spec{Family: models.FamilyCNN, WindowSize: 100, ConvLayers: 1, Filters: 8, Kernel: 3, Stride: 1, Pool: "none", Optimizer: "adam", LR: 1e-3}
	b := models.Spec{Family: models.FamilyRF, WindowSize: 90, Trees: 100}
	if got := Crossover(a, b, rng); got != a {
		t.Fatal("cross-family crossover should return parent a")
	}
}

func TestMutatePreservesValidity(t *testing.T) {
	rng := tensor.NewRNG(5)
	space := FastSearchSpace()
	for _, f := range models.Families() {
		s := space.RandomSpec(f, rng)
		for i := 0; i < 100; i++ {
			s = space.Mutate(s, rng)
			if s.Family != f {
				t.Fatal("mutation changed family")
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("mutation produced invalid spec: %v (%+v)", err, s)
			}
		}
	}
}

func TestRandomSpecValid(t *testing.T) {
	rng := tensor.NewRNG(6)
	for _, space := range []SearchSpace{PaperSearchSpace(), FastSearchSpace()} {
		for _, f := range models.Families() {
			for i := 0; i < 30; i++ {
				s := space.RandomSpec(f, rng)
				if err := s.Validate(); err != nil {
					t.Fatalf("random spec invalid: %v (%+v)", err, s)
				}
			}
		}
	}
}

// TestSearchEndToEnd runs a miniature Algorithm 1 on real synthetic EEG and
// checks the structural invariants of the result.
func TestSearchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("evolutionary search is expensive")
	}
	bySubject, _, err := dataset.Build([]int{0, 1}, 1, dataset.ShortProtocol(32), 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	data := func(windowSize int) ([]dataset.Window, []dataset.Window, error) {
		by, _, err := dataset.Build([]int{0, 1}, 1, dataset.ShortProtocol(32), windowSize, 7)
		if err != nil {
			return nil, nil, err
		}
		var all []dataset.Window
		for _, ws := range by {
			all = append(all, ws...)
		}
		dataset.Shuffle(all, tensor.NewRNG(1))
		cut := len(all) * 8 / 10
		return all[:cut], all[cut:], nil
	}
	_ = bySubject
	cfg := DefaultConfig()
	cfg.PopulationSize = 6
	cfg.Generations = 2
	cfg.Train = models.TrainOptions{Epochs: 3, BatchSize: 32}
	cfg.Families = []models.Family{models.FamilyCNN, models.FamilyRF}
	res, err := Search(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Population) != cfg.PopulationSize {
		t.Fatalf("population %d want %d", len(res.Population), cfg.PopulationSize)
	}
	if len(res.History) != cfg.Generations {
		t.Fatalf("history %d want %d", len(res.History), cfg.Generations)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty Pareto front")
	}
	if res.Best.Clf == nil {
		t.Fatal("best model has no trained classifier")
	}
	// Front must be non-dominated within the final population.
	for _, f := range res.Front {
		for _, c := range res.Population {
			if c.Accuracy > f.Accuracy && c.Params <= f.Params {
				t.Fatalf("front member dominated: %+v by %+v", f.Spec.ID(), c.Spec.ID())
			}
		}
	}
}

func TestSearchRejectsTinyPopulation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopulationSize = 1
	if _, err := Search(cfg, nil); err == nil {
		t.Fatal("population of 1 should error")
	}
}
