// cogarm runs an interactive-style end-to-end demo of the CognitiveArm
// pipeline: it trains a decoder for one subject, then scripts a scenario of
// voice commands and mental tasks, printing the arm's state as it moves.
//
// It also hosts the offline admin verbs — currently the write-ahead-log
// tooling (`cogarm wal verify|dump`, see wal.go).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"cognitivearm"
	"cognitivearm/internal/arm"
	"cognitivearm/internal/audio"
	"cognitivearm/internal/eeg"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "wal" {
		runWal(os.Args[2:])
		return
	}
	seed := flag.Uint64("seed", 42, "simulation seed")
	flag.Parse()
	if err := run(os.Stdout, *seed); err != nil {
		log.Fatal(err)
	}
}

// run plays the scripted scenario for seed and writes the arm's state to w:
// voice-mode switches, servo angles after each step, then the tick count,
// the modelled latency and the label counts.
func run(w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "cogarm: CognitiveArm end-to-end demo")
	sys, err := cognitivearm.QuickStart(seed)
	if err != nil {
		return err
	}
	defer sys.Close()
	fmt.Fprintf(w, "decoder: %s\n\n", sys.Classifier.Name())

	voice := audio.NewSynthesizer(seed * 1000) // an enrolled speaker
	script := []struct {
		say   audio.Word
		think eeg.Action
		secs  float64
	}{
		{audio.WordArm, eeg.Right, 3},     // raise the arm
		{audio.Silence, eeg.Idle, 1},      // hold
		{audio.WordElbow, eeg.Right, 2},   // rotate clockwise
		{audio.WordFingers, eeg.Right, 3}, // close the grip
		{audio.Silence, eeg.Idle, 1},      // hold the object
		{audio.WordFingers, eeg.Left, 2},  // release
		{audio.WordArm, eeg.Left, 3},      // lower
	}
	for _, step := range script {
		if step.say != audio.Silence {
			heard := sys.HearCommand(voice.Utter(step.say, 0.8))
			fmt.Fprintf(w, "[voice] %q → mode %s\n", heard, sys.Controller.Mode())
		}
		sys.Board.SetState(step.think)
		ticks := int(step.secs * 15)
		for i := 0; i < ticks; i++ {
			sys.Controller.Tick()
		}
		ard := sys.Controller.Arduino()
		fmt.Fprintf(w, "[think %-5v %.0fs] arm %5.1f° elbow %5.1f° fingers %5.1f°\n",
			step.think, step.secs,
			ard.Angle(arm.ChanArm), ard.Angle(arm.ChanElbow), ard.Angle(arm.ChanIndex))
	}

	l := sys.Controller.Latency
	fmt.Fprintf(w, "\n%d ticks, mean modelled end-to-end latency %.1f ms (15 Hz budget: 66.7 ms)\n",
		l.Ticks, 1e3*l.PerTick())
	fmt.Fprintf(w, "labels: %v\n", sys.Controller.Predictions())
	return nil
}
