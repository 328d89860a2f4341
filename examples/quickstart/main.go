// Quickstart: train a decoder for one synthetic subject, deploy the closed
// loop, think "right", and watch the arm raise.
package main

import (
	"fmt"
	"log"

	"cognitivearm"
	"cognitivearm/internal/arm"
	"cognitivearm/internal/eeg"
)

func main() {
	sys, err := cognitivearm.QuickStart(42)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	fmt.Println("CognitiveArm quickstart — subject 0, RF decoder")
	fmt.Printf("classifier: %s (%d params)\n", sys.Classifier.Name(), sys.Classifier.NumParams())

	// The participant imagines moving the right hand.
	sys.Board.SetState(eeg.Right)
	start := sys.Controller.Arduino().Target(arm.ChanArm)
	for i := 0; i < 60; i++ {
		sys.Controller.Tick()
	}
	end := sys.Controller.Arduino().Target(arm.ChanArm)
	fmt.Printf("imagining RIGHT for 4 s: arm lift %.0f° → %.0f°\n", start, end)

	// Then rests.
	sys.Board.SetState(eeg.Idle)
	for i := 0; i < 30; i++ {
		sys.Controller.Tick()
	}
	fmt.Printf("resting: arm holds at %.0f°\n", sys.Controller.Arduino().Target(arm.ChanArm))
	fmt.Printf("labels emitted: %v\n", sys.Controller.Predictions())
}
