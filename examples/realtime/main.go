// Realtime: the full validation protocol of §IV-A5 — twenty closed-loop
// sessions with randomized intents, plus the end-to-end latency breakdown
// on the Jetson Orin Nano device model.
package main

import (
	"fmt"
	"log"

	"cognitivearm"
	"cognitivearm/internal/control"
	"cognitivearm/internal/core"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/tensor"
)

func main() {
	sys, err := cognitivearm.QuickStart(11)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	fmt.Println("CognitiveArm real-world validation protocol (20 sessions)")
	rng := tensor.NewRNG(5)
	successes := 0
	const sessions = 20
	for s := 0; s < sessions; s++ {
		intents := make([]eeg.Action, 3)
		for i := range intents {
			intents[i] = eeg.Action(rng.Intn(3))
		}
		res, err := core.RunValidationSession(sys.Controller, intents, 40)
		if err != nil {
			log.Fatal(err)
		}
		status := "ok"
		if !res.Success {
			status = "FAILED"
		}
		fmt.Printf("session %2d: intents %v → %d/%d correct (%s)\n",
			s+1, intents, res.CorrectMoves, res.Intents, status)
		if res.Success {
			successes++
		}
	}
	fmt.Printf("\n%d/%d sessions successful (paper: 19/20)\n", successes, sessions)

	l := sys.Controller.Latency
	fmt.Printf("\nlatency over %d ticks at %d Hz:\n", l.Ticks, control.ClassifyRateHz)
	fmt.Printf("  hub tick (measured Go):    %.3f ms/tick\n", 1e3*l.TickWallSec/float64(l.Ticks))
	fmt.Printf("  inference (Jetson model):  %.3f ms/tick\n", 1e3*l.EdgeInferenceSec/float64(l.Ticks))
	fmt.Printf("  actuation (modelled):      %.3f ms/tick\n", 1e3*l.ActuationSec/float64(l.Ticks))
	fmt.Printf("  end-to-end (modelled):     %.3f ms/tick (budget %.1f ms)\n",
		1e3*l.PerTick(), 1e3/control.ClassifyRateHz)
}
