// benchtables regenerates the paper's tables and figures as text. Use
// -all for everything, or select individual artefacts:
//
//	benchtables -table 1|2|3
//	benchtables -fig 4|5|7|8|9|10|11|12
//	benchtables -headline -validate
//	benchtables -scale full   (reproduction scale; slower)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"cognitivearm"
	"cognitivearm/internal/asr"
	"cognitivearm/internal/core"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/evo"
	"cognitivearm/internal/experiments"
	"cognitivearm/internal/models"
	"cognitivearm/internal/tensor"
)

func main() {
	table := flag.Int("table", 0, "print table N (1-3)")
	fig := flag.Int("fig", 0, "regenerate figure N (4,5,7,8,9,10,11,12)")
	headline := flag.Bool("headline", false, "reproduce the §V headline numbers")
	validate := flag.Bool("validate", false, "run the §IV-A5 real-world validation protocol")
	all := flag.Bool("all", false, "everything")
	scale := flag.String("scale", "quick", "quick|full experiment scale")
	flag.Parse()

	sc := experiments.Quick()
	if *scale == "full" {
		sc = experiments.Full()
	}

	ran := false
	if *all || *table == 1 {
		printTable1()
		ran = true
	}
	if *all || *table == 3 {
		fmt.Println("== Table III: hyperparameter search space ==")
		fmt.Println(experiments.TableIII())
		ran = true
	}
	if *all || *fig == 4 {
		runFig4(sc)
		ran = true
	}
	if *all || *fig == 5 {
		fmt.Println("== Figure 5: raw vs filtered EEG (channel C3) ==")
		fmt.Println(experiments.Fig5(sc.Seed).String())
		ran = true
	}
	if *all || *fig == 7 {
		runFig7(sc)
		ran = true
	}
	if *all || *fig == 8 || *fig == 9 || *fig == 10 {
		runSearchFigures(sc, *fig, *all)
		ran = true
	}
	if *all || *fig == 11 {
		runFig11(sc)
		ran = true
	}
	if *all || *fig == 12 {
		runFig12(sc)
		ran = true
	}
	if *all || *headline || *table == 2 {
		runHeadline(sc, *all || *table == 2)
		ran = true
	}
	if *all || *validate {
		runValidation()
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func printTable1() {
	fmt.Println("== Table I: EMG vs EEG effectiveness ==")
	fmt.Printf("%-22s | %-55s | %s\n", "Condition", "Impact on EMG Use", "EEG as a Solution")
	for _, r := range experiments.TableI() {
		fmt.Printf("%-22s | %-55s | %s\n", r.Condition, r.EMGImpact, r.EEGCase)
	}
	fmt.Println()
}

func runFig4(sc experiments.Scale) {
	fmt.Println("== Figure 4: LSL vs UDP streaming ==")
	r, err := experiments.Fig4(400, sc.Seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(r.String())
}

func runFig7(sc experiments.Scale) {
	fmt.Println("== Figure 7: ASR model Pareto (PCC vs runtime, marker=VRAM) ==")
	results, err := asr.EvaluateZoo(1.49e9*25, 10, sc.Seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s %8s %10s %8s %7s\n", "model", "PCC", "runtime-s", "VRAM-GB", "front")
	for _, r := range results {
		fmt.Printf("%-16s %8.3f %10.3f %8.1f %7v\n", r.Model.Name, r.PCC, r.InferenceSec, r.Model.VRAMGB, r.OnFront)
	}
	sel, err := asr.SelectModel(results, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected: %s (paper selects whisper-small)\n\n", sel.Model.Name)
}

func runSearchFigures(sc experiments.Scale, fig int, all bool) {
	fams := map[int][]models.Family{
		8:  {models.FamilyCNN, models.FamilyLSTM, models.FamilyTransformer},
		10: {models.FamilyRF},
	}
	var run []models.Family
	if all || fig == 9 {
		run = models.Families()
	} else {
		run = fams[fig]
	}
	results := map[models.Family]*evo.Result{}
	for _, fam := range run {
		fmt.Printf("== Figure 8/10: evolutionary search, family %v ==\n", fam)
		res, err := experiments.FamilySearch(sc, fam)
		if err != nil {
			log.Fatal(err)
		}
		results[fam] = res
		fmt.Print(experiments.FrontString(res.Front))
		fmt.Printf("best: %s\n\n", res.Best.Spec.ID())
	}
	if all || fig == 9 {
		fmt.Println("== Figure 9: global Pareto front (all families) ==")
		fmt.Print(experiments.FrontString(experiments.GlobalFront(results)))
		fmt.Println()
	}
}

func runFig11(sc experiments.Scale) {
	fmt.Println("== Figure 11: ensemble combinations (accuracy vs latency) ==")
	entries, err := experiments.Fig11(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-64s %8s %10s\n", "ensemble", "acc", "latency-s")
	for _, e := range entries {
		fmt.Printf("%-64s %8.3f %10.3f\n", e.Name, e.Accuracy, e.InferenceSec)
	}
	fmt.Println()
}

func runFig12(sc experiments.Scale) {
	fmt.Println("== Figure 12: compression sweep (accuracy vs latency) ==")
	entries, err := experiments.Fig12(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-20s %8s %10s %10s\n", "variant", "acc", "latency-s", "sparsity")
	for _, e := range entries {
		fmt.Printf("%-20s %8.3f %10.4f %10.2f\n", e.Name, e.Accuracy, e.InferenceSec, e.Sparsity)
	}
	fmt.Println()
}

func runHeadline(sc experiments.Scale, withTable2 bool) {
	fmt.Println("== §V headline reproduction ==")
	r, err := experiments.Headline(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(r.String())
	fmt.Println()
	if withTable2 {
		fmt.Println("== Table II: brain-controlled prosthetic arms ==")
		fmt.Printf("%-28s %-12s %-8s %-8s %s\n", "Solution", "Method", "Acc", "Cost", "Scope")
		for _, row := range experiments.TableII(r.EnsembleAcc) {
			fmt.Printf("%-28s %-12s %-8s %-8s %s\n", row.Solution, row.Method, row.Accuracy, row.Cost, row.Scope)
		}
		fmt.Println()
	}
}

func runValidation() {
	fmt.Println("== §IV-A5 real-world validation (20 sessions) ==")
	sys, err := cognitivearm.QuickStart(11)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	rng := tensor.NewRNG(5)
	successes := 0
	for s := 0; s < 20; s++ {
		intents := make([]eeg.Action, 3)
		for i := range intents {
			intents[i] = eeg.Action(rng.Intn(3))
		}
		res, err := core.RunValidationSession(sys.Controller, intents, 40)
		if err != nil {
			log.Fatal(err)
		}
		if res.Success {
			successes++
		}
	}
	fmt.Printf("%d/20 sessions successful (paper: 19/20)\n\n", successes)
}
