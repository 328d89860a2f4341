// Voicecontrol: the Fig. 6 scenario — voice keywords multiplex the three
// EEG actions onto different degrees of freedom, ending in a cup grip.
package main

import (
	"fmt"
	"log"

	"cognitivearm"
	"cognitivearm/internal/arm"
	"cognitivearm/internal/audio"
	"cognitivearm/internal/eeg"
)

func main() {
	sys, err := cognitivearm.QuickStart(7)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	synth := audio.NewSynthesizer(7000) // an enrolled speaker
	say := func(w audio.Word) {
		heard := sys.HearCommand(synth.Utter(w, 0.8))
		fmt.Printf("user says %q → mode %s\n", w, sys.Controller.Mode())
		if heard != w {
			fmt.Printf("  (misheard as %q)\n", heard)
		}
	}
	think := func(a eeg.Action, ticks int) {
		sys.Board.SetState(a)
		for i := 0; i < ticks; i++ {
			sys.Controller.Tick()
		}
		ard := sys.Controller.Arduino()
		fmt.Printf("  thinking %-5v → arm %.0f° elbow %.0f° index %.0f°\n",
			a, ard.Target(arm.ChanArm), ard.Target(arm.ChanElbow), ard.Target(arm.ChanIndex))
	}

	fmt.Println("CognitiveArm voice-multiplexed control (Fig. 6)")
	say(audio.WordArm)
	think(eeg.Right, 45) // raise the arm toward the cup
	say(audio.WordElbow)
	think(eeg.Left, 45) // rotate anticlockwise to align
	say(audio.WordFingers)
	think(eeg.Right, 45) // close the fingers around the cup
	think(eeg.Idle, 20)  // hold

	fmt.Println("cup gripped; final servo targets:")
	for c := arm.Channel(0); c < arm.NumChannels; c++ {
		fmt.Printf("  channel %d: %.0f°\n", c, sys.Controller.Arduino().Target(c))
	}
}
