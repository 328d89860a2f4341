// Package eeg synthesises 16-channel, 125 Hz EEG with the structure the
// CognitiveArm pipeline was built to handle. It substitutes for the OpenBCI
// UltraCortex Mark IV headset and the paper's five human participants
// (§III-A1, §III-B1): each synthetic subject has its own resting rhythms,
// individual alpha frequency, motor-imagery event-related desynchronisation
// (ERD) depth over the sensorimotor electrodes C3/C4, artifact rates and
// noise floor. Motor imagery of the right hand suppresses the mu/beta rhythm
// over the contralateral (left) hemisphere electrode C3, left-hand imagery
// suppresses C4, and idle leaves both at baseline — the physiological
// contrast every motor-imagery BCI decodes.
package eeg

import (
	"fmt"
	"math"

	"cognitivearm/internal/tensor"
)

// SampleRate is the acquisition rate of the Cyton+Daisy boards (Hz).
const SampleRate = 125.0

// NumChannels is the electrode count of the 16-channel montage.
const NumChannels = 16

// Action is one of the three core mental-task classes the paper classifies.
type Action int

// The three core actions (§III-B1). Idle is the zero value so that an
// uninitialised label is the safe "do nothing" class.
const (
	Idle Action = iota
	Left
	Right
)

// NumActions is the number of core action classes.
const NumActions = 3

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Idle:
		return "idle"
	case Left:
		return "left"
	case Right:
		return "right"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Actions returns all classes in label order.
func Actions() []Action { return []Action{Idle, Left, Right} }

// ChannelNames lists the 16 electrodes of the 10–20 montage used by the
// paper (Figure 3), in board channel order.
var ChannelNames = []string{
	"FP1", "FP2", "F7", "F3", "F4", "F8",
	"T7", "C3", "C4", "T8",
	"P7", "P3", "P4", "P8",
	"O1", "O2",
}

// ChannelIndex returns the board index of the named electrode, or -1.
func ChannelIndex(name string) int {
	for i, n := range ChannelNames {
		if n == name {
			return i
		}
	}
	return -1
}

// Canonical electrode indices used by the generator and feature code.
var (
	chFP1 = ChannelIndex("FP1")
	chFP2 = ChannelIndex("FP2")
	chC3  = ChannelIndex("C3")
	chC4  = ChannelIndex("C4")
	chT7  = ChannelIndex("T7")
	chT8  = ChannelIndex("T8")
	chO1  = ChannelIndex("O1")
	chO2  = ChannelIndex("O2")
)

// Subject holds the per-participant physiological parameters. Values are in
// microvolts unless noted.
type Subject struct {
	ID int
	// AlphaHz is the individual alpha (mu) peak frequency, 9–12 Hz.
	AlphaHz float64
	// MuAmp is the resting mu-rhythm amplitude over C3/C4.
	MuAmp float64
	// BetaAmp is the resting beta-rhythm amplitude over the motor strip.
	BetaAmp float64
	// OccAlphaAmp is the occipital alpha amplitude over O1/O2.
	OccAlphaAmp float64
	// ERDDepth in [0,1]: fractional mu/beta suppression during imagery over
	// the contralateral electrode. Higher = easier subject.
	ERDDepth float64
	// ERSGain >= 0: fractional ipsilateral enhancement during imagery.
	ERSGain float64
	// NoiseAmp is the broadband background EEG amplitude.
	NoiseAmp float64
	// LineAmp is the 50 Hz mains pickup amplitude.
	LineAmp float64
	// BlinkRateHz is the expected eye-blink rate (events per second).
	BlinkRateHz float64
	// EMGBurstRateHz is the expected temporalis-muscle burst rate.
	EMGBurstRateHz float64
	// DriftAmp scales the slow electrode drift random walk.
	DriftAmp float64
	// CueLatencySec is the subject's reaction delay between the auditory cue
	// and actual imagery onset (§III-B2 transition periods).
	CueLatencySec float64
}

// NewSubject derives a reproducible synthetic participant from an ID. IDs
// 0–4 correspond to the paper's five participants; other IDs extrapolate.
func NewSubject(id int) Subject {
	rng := tensor.NewRNG(uint64(id)*0x9E3779B9 + 1)
	return Subject{
		ID:             id,
		AlphaHz:        9.5 + 1.8*rng.Float64(),
		MuAmp:          12 + 5*rng.Float64(),
		BetaAmp:        6 + 3*rng.Float64(),
		OccAlphaAmp:    10 + 5*rng.Float64(),
		ERDDepth:       0.55 + 0.3*rng.Float64(),
		ERSGain:        0.08 + 0.12*rng.Float64(),
		NoiseAmp:       2.5 + 1.5*rng.Float64(),
		LineAmp:        4 + 4*rng.Float64(),
		BlinkRateHz:    0.15 + 0.2*rng.Float64(),
		EMGBurstRateHz: 0.05 + 0.1*rng.Float64(),
		DriftAmp:       0.4 + 0.4*rng.Float64(),
		CueLatencySec:  0.15 + 0.35*rng.Float64(),
	}
}

// Generator produces a continuous multichannel EEG stream for one subject.
// It is a stateful oscillator bank plus noise processes; call Next once per
// sample period with the subject's current mental state.
type Generator struct {
	Subject Subject
	fs      float64
	rng     *tensor.RNG
	t       int // sample index

	phase      [NumChannels][3]float64 // mu, beta, theta oscillator phases
	drift      [NumChannels]float64    // random-walk electrode drift
	arNoise    [NumChannels]float64    // AR(1) pink-ish background state
	blinkLeft  int                     // samples remaining in current blink
	blinkAmp   float64
	emgLeft    int // samples remaining in current EMG burst
	emgChannel int
	// erdState smooths the ERD modulation so imagery onset has the ~200 ms
	// physiological ramp rather than a step.
	erdC3, erdC4 float64
}

// NewGenerator creates a generator for the subject with an independent,
// reproducible noise stream derived from the seed.
func NewGenerator(s Subject, seed uint64) *Generator {
	g := &Generator{Subject: s, fs: SampleRate, rng: tensor.NewRNG(seed ^ (uint64(s.ID+1) * 0xA24BAED4963EE407))}
	for c := 0; c < NumChannels; c++ {
		for o := 0; o < 3; o++ {
			g.phase[c][o] = 2 * math.Pi * g.rng.Float64()
		}
	}
	g.erdC3, g.erdC4 = 1, 1
	return g
}

// muGain returns the target mu/beta amplitude multipliers for C3 and C4
// under the given imagery state.
func (g *Generator) muGain(a Action) (c3, c4 float64) {
	s := g.Subject
	switch a {
	case Right: // right-hand imagery → contralateral C3 ERD, C4 mild ERS
		return 1 - s.ERDDepth, 1 + s.ERSGain
	case Left: // left-hand imagery → contralateral C4 ERD, C3 mild ERS
		return 1 + s.ERSGain, 1 - s.ERDDepth
	default:
		return 1, 1
	}
}

// Next generates one 16-channel sample (microvolts) for the current mental
// state and advances the internal clock.
func (g *Generator) Next(a Action) [NumChannels]float64 {
	s := g.Subject
	dt := 1 / g.fs
	targetC3, targetC4 := g.muGain(a)
	// ~200 ms exponential approach to the target modulation.
	const tau = 0.2
	alpha := dt / tau
	g.erdC3 += alpha * (targetC3 - g.erdC3)
	g.erdC4 += alpha * (targetC4 - g.erdC4)

	// Oscillator phase increments with small frequency jitter.
	muW := 2 * math.Pi * s.AlphaHz * dt
	betaW := 2 * math.Pi * (2.2 * s.AlphaHz) * dt
	thetaW := 2 * math.Pi * 5.5 * dt
	lineW := 2 * math.Pi * 50 * dt

	// Blink process: Poisson arrivals, ~300 ms half-sine deflection.
	if g.blinkLeft == 0 && g.rng.Float64() < s.BlinkRateHz*dt {
		g.blinkLeft = int(0.3 * g.fs)
		g.blinkAmp = 60 + 40*g.rng.Float64()
	}
	// EMG burst process: ~150 ms of high-frequency noise on one temporal site.
	if g.emgLeft == 0 && g.rng.Float64() < s.EMGBurstRateHz*dt {
		g.emgLeft = int(0.15 * g.fs)
		if g.rng.Float64() < 0.5 {
			g.emgChannel = chT7
		} else {
			g.emgChannel = chT8
		}
	}

	var out [NumChannels]float64
	linePhase := lineW * float64(g.t)
	for c := 0; c < NumChannels; c++ {
		jitter := 1 + 0.01*g.rng.NormFloat64()
		g.phase[c][0] += muW * jitter
		g.phase[c][1] += betaW * jitter
		g.phase[c][2] += thetaW * jitter

		// Background: AR(1) pink-ish noise plus white floor.
		g.arNoise[c] = 0.97*g.arNoise[c] + s.NoiseAmp*0.25*g.rng.NormFloat64()
		v := g.arNoise[c] + 0.6*s.NoiseAmp*g.rng.NormFloat64()

		// Region-specific rhythms.
		switch c {
		case chC3:
			v += s.MuAmp * g.erdC3 * math.Sin(g.phase[c][0])
			v += s.BetaAmp * g.erdC3 * math.Sin(g.phase[c][1])
		case chC4:
			v += s.MuAmp * g.erdC4 * math.Sin(g.phase[c][0])
			v += s.BetaAmp * g.erdC4 * math.Sin(g.phase[c][1])
		case chO1, chO2:
			v += s.OccAlphaAmp * math.Sin(g.phase[c][0])
		case chFP1, chFP2:
			v += 0.5 * s.MuAmp * 0.3 * math.Sin(g.phase[c][2]) // frontal theta
		default:
			v += 0.3 * s.MuAmp * math.Sin(g.phase[c][0]) // volume-conducted alpha
			v += 0.3 * s.BetaAmp * math.Sin(g.phase[c][1])
		}

		// Mains pickup, common across channels with small per-channel gain.
		v += s.LineAmp * (0.8 + 0.05*float64(c%5)) * math.Sin(linePhase)

		// Slow electrode drift random walk.
		g.drift[c] += s.DriftAmp * 0.02 * g.rng.NormFloat64()
		g.drift[c] *= 0.99995
		v += g.drift[c]

		// Blink artifact, frontal-dominant.
		if g.blinkLeft > 0 {
			prog := 1 - float64(g.blinkLeft)/(0.3*g.fs)
			env := math.Sin(math.Pi * prog)
			switch c {
			case chFP1, chFP2:
				v += g.blinkAmp * env
			case ChannelIndex("F3"), ChannelIndex("F4"), ChannelIndex("F7"), ChannelIndex("F8"):
				v += 0.35 * g.blinkAmp * env
			}
		}
		// EMG burst artifact.
		if g.emgLeft > 0 && c == g.emgChannel {
			v += 15 * g.rng.NormFloat64()
		}
		out[c] = v
	}
	if g.blinkLeft > 0 {
		g.blinkLeft--
	}
	if g.emgLeft > 0 {
		g.emgLeft--
	}
	g.t++
	return out
}

// Generate produces n consecutive samples under a fixed mental state,
// returned channel-major: result[ch][i].
func (g *Generator) Generate(a Action, n int) [][]float64 {
	out := make([][]float64, NumChannels)
	for c := range out {
		out[c] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		s := g.Next(a)
		for c := 0; c < NumChannels; c++ {
			out[c][i] = s[c]
		}
	}
	return out
}

// ElapsedSeconds returns how much signal time the generator has produced.
func (g *Generator) ElapsedSeconds() float64 { return float64(g.t) / g.fs }
