// Search: run the evolutionary design-space exploration (Algorithm 1) for
// the CNN family, print the Pareto front, and compress the winner.
package main

import (
	"fmt"
	"log"

	"cognitivearm/internal/compress"
	"cognitivearm/internal/dataset"
	"cognitivearm/internal/evo"
	"cognitivearm/internal/experiments"
	"cognitivearm/internal/models"
	"cognitivearm/internal/tensor"
)

func main() {
	sc := experiments.Quick()
	fmt.Println("CognitiveArm evolutionary search (CNN family, quick scale)")

	data := func(window int) ([]dataset.Window, []dataset.Window, error) {
		bySubject, _, err := dataset.Build(sc.SubjectIDs, 1, dataset.ShortProtocol(sc.SessionSeconds), window, sc.Seed)
		if err != nil {
			return nil, nil, err
		}
		var all []dataset.Window
		for _, id := range sc.SubjectIDs {
			all = append(all, bySubject[id]...)
		}
		dataset.Shuffle(all, tensor.NewRNG(sc.Seed+3))
		cut := len(all) * 8 / 10
		return all[:cut], all[cut:], nil
	}

	cfg := evo.DefaultConfig()
	cfg.PopulationSize = 6
	cfg.Generations = 2
	cfg.Families = []models.Family{models.FamilyCNN}
	cfg.Train = models.TrainOptions{Epochs: 6, BatchSize: 32, Patience: 2}
	cfg.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }

	res, err := evo.Search(cfg, data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nPareto front (accuracy vs parameters):")
	fmt.Print(experiments.FrontString(res.Front))
	fmt.Printf("\nselected best model: %s (acc %.3f, %d params)\n",
		res.Best.Spec.ID(), res.Best.Accuracy, res.Best.Params)

	// Compress the winner at the paper's selected 70 % level.
	nn, ok := res.Best.Clf.(*models.NNClassifier)
	if !ok {
		fmt.Println("best model is not a neural network; skipping compression")
		return
	}
	train, val, err := data(res.Best.Spec.WindowSize)
	if err != nil {
		log.Fatal(err)
	}
	pruned, rep, err := compress.Prune(nn, 0.7)
	if err != nil {
		log.Fatal(err)
	}
	compress.FineTunePruned(pruned, train, val, 6, 9)
	fmt.Printf("70%% pruned: sparsity %.2f, accuracy %.3f (dense %.3f)\n",
		rep.AchievedSparsity, models.Accuracy(pruned, val), res.Best.Accuracy)
}
