// Package dataset reproduces CognitiveArm's EEG dataset generation and
// annotation pipeline (§III-B): a cue-driven experimental protocol (10 s
// mental task / 10 s idle blocks), auditory-cue-based labelling with
// transition periods, offline preprocessing, sliding-window segmentation
// (window 100–200 samples, step 25), per-subject normalisation, class
// balancing, and leave-one-subject-out splits.
package dataset

import (
	"fmt"
	"math"

	"cognitivearm/internal/eeg"
	"cognitivearm/internal/signal"
	"cognitivearm/internal/tensor"
)

// Cue marks an auditory cue instructing the participant to begin a task.
type Cue struct {
	TimeSec  float64
	Action   eeg.Action
	Duration float64 // seconds the task is held
}

// Recording is one acquisition session: continuous multichannel EEG plus the
// cue schedule that produced it.
type Recording struct {
	SubjectID int
	Session   int
	// Signal is channel-major: Signal[ch][sample], at eeg.SampleRate.
	Signal [][]float64
	Cues   []Cue
	// TruthLatencySec is the subject's actual cue-to-imagery delay, known
	// only to the simulator (used to validate the annotation margins).
	TruthLatencySec float64
}

// Protocol describes the collection structure. The paper uses TaskSec=10,
// RestSec=10, about 5 minutes per session, 3 sessions per subject.
type Protocol struct {
	TaskSec  float64
	RestSec  float64
	TotalSec float64
	// Order cycles through the non-idle tasks; rest blocks are labelled Idle.
	Order []eeg.Action
}

// PaperProtocol returns the collection structure from §III-B1.
func PaperProtocol() Protocol {
	return Protocol{TaskSec: 10, RestSec: 10, TotalSec: 300, Order: []eeg.Action{eeg.Left, eeg.Right}}
}

// ShortProtocol is a scaled-down variant for tests and quick experiments.
func ShortProtocol(totalSec float64) Protocol {
	return Protocol{TaskSec: 4, RestSec: 4, TotalSec: totalSec, Order: []eeg.Action{eeg.Left, eeg.Right}}
}

// Collect simulates one session for the subject: the generator is driven
// through the protocol's cue schedule, including the subject's cue-response
// latency, exactly as a live participant would lag the beep.
func Collect(subject eeg.Subject, session int, proto Protocol, seed uint64) Recording {
	gen := eeg.NewGenerator(subject, seed+uint64(session)*0x9E37)
	fs := eeg.SampleRate
	total := int(proto.TotalSec * fs)
	sig := make([][]float64, eeg.NumChannels)
	for c := range sig {
		sig[c] = make([]float64, total)
	}
	var cues []Cue

	// Build the cue schedule: task, rest, task, rest...
	type span struct {
		start, end int
		action     eeg.Action
	}
	var spans []span
	cursor, orderIdx := 0, 0
	for cursor < total {
		task := proto.Order[orderIdx%len(proto.Order)]
		orderIdx++
		taskLen := int(proto.TaskSec * fs)
		restLen := int(proto.RestSec * fs)
		if cursor+taskLen > total {
			taskLen = total - cursor
		}
		if taskLen > 0 {
			spans = append(spans, span{cursor, cursor + taskLen, task})
			cues = append(cues, Cue{TimeSec: float64(cursor) / fs, Action: task, Duration: float64(taskLen) / fs})
			cursor += taskLen
		}
		if cursor+restLen > total {
			restLen = total - cursor
		}
		if restLen > 0 {
			spans = append(spans, span{cursor, cursor + restLen, eeg.Idle})
			cues = append(cues, Cue{TimeSec: float64(cursor) / fs, Action: eeg.Idle, Duration: float64(restLen) / fs})
			cursor += restLen
		}
	}

	// Drive the generator. The participant switches mental state only after
	// their personal cue latency.
	latencySamples := int(subject.CueLatencySec * fs)
	current := eeg.Idle
	for _, sp := range spans {
		for i := sp.start; i < sp.end; i++ {
			if i >= sp.start+latencySamples {
				current = sp.action
			}
			s := gen.Next(current)
			for c := 0; c < eeg.NumChannels; c++ {
				sig[c][i] = s[c]
			}
		}
	}
	return Recording{SubjectID: subject.ID, Session: session, Signal: sig, Cues: cues, TruthLatencySec: subject.CueLatencySec}
}

// Preprocess applies the paper's offline cleaning chain to every channel:
// zero-phase Butterworth band-pass + notch, then artifact repair. It returns
// a new Recording.
func Preprocess(rec Recording) (Recording, error) {
	pre, err := signal.NewEEGPreprocessor(eeg.SampleRate)
	if err != nil {
		return Recording{}, fmt.Errorf("dataset: %w", err)
	}
	cleaner := signal.NewArtifactCleaner()
	out := rec
	out.Signal = make([][]float64, len(rec.Signal))
	for c := range rec.Signal {
		filtered := pre.FilterOffline(rec.Signal[c])
		repaired, _ := cleaner.Clean(filtered)
		out.Signal[c] = repaired
	}
	return out, nil
}

// Window is one labelled training example: Data is time-major
// (rows = samples, cols = channels).
type Window struct {
	Data      *tensor.Matrix
	Label     eeg.Action
	SubjectID int
}

// SegmentConfig controls sliding-window extraction (§III-B3).
type SegmentConfig struct {
	// Size is the window length in samples (paper sweeps 100–200).
	Size int
	// Step is the hop in samples (paper: 25 = 0.2 s).
	Step int
	// TransitionSec trims this much signal after every cue before windows are
	// taken, absorbing cue-response latency (§III-B2).
	TransitionSec float64
}

// DefaultSegment matches the paper's headline configuration.
func DefaultSegment(windowSize int) SegmentConfig {
	return SegmentConfig{Size: windowSize, Step: 25, TransitionSec: 0.75}
}

// Segment slices a recording into labelled windows. Each cue span contributes
// windows wholly inside [cue+transition, cue+duration), all carrying the
// span's label.
func Segment(rec Recording, cfg SegmentConfig) ([]Window, error) {
	if cfg.Size <= 0 || cfg.Step <= 0 {
		return nil, fmt.Errorf("dataset: invalid segment config %+v", cfg)
	}
	if len(rec.Signal) == 0 {
		return nil, fmt.Errorf("dataset: empty recording")
	}
	fs := eeg.SampleRate
	nch := len(rec.Signal)
	total := len(rec.Signal[0])
	var out []Window
	for _, cue := range rec.Cues {
		start := int((cue.TimeSec + cfg.TransitionSec) * fs)
		end := int((cue.TimeSec + cue.Duration) * fs)
		if end > total {
			end = total
		}
		for w := start; w+cfg.Size <= end; w += cfg.Step {
			m := tensor.New(cfg.Size, nch)
			for t := 0; t < cfg.Size; t++ {
				row := m.Row(t)
				for c := 0; c < nch; c++ {
					row[c] = rec.Signal[c][w+t]
				}
			}
			out = append(out, Window{Data: m, Label: cue.Action, SubjectID: rec.SubjectID})
		}
	}
	return out, nil
}

// Stats holds per-channel normalisation constants for one subject.
type Stats struct {
	Mean, Std []float64
}

// ComputeStats derives per-channel mean/std over a set of windows, the
// per-subject normalisation of §V-A.
func ComputeStats(windows []Window) Stats {
	if len(windows) == 0 {
		return Stats{}
	}
	nch := windows[0].Data.Cols
	mean := make([]float64, nch)
	var count float64
	for _, w := range windows {
		for t := 0; t < w.Data.Rows; t++ {
			row := w.Data.Row(t)
			for c := range row {
				mean[c] += row[c]
			}
		}
		count += float64(w.Data.Rows)
	}
	for c := range mean {
		mean[c] /= count
	}
	std := make([]float64, nch)
	for _, w := range windows {
		for t := 0; t < w.Data.Rows; t++ {
			row := w.Data.Row(t)
			for c := range row {
				d := row[c] - mean[c]
				std[c] += d * d
			}
		}
	}
	for c := range std {
		std[c] = math.Sqrt(std[c] / count)
		if std[c] == 0 {
			std[c] = 1
		}
	}
	return Stats{Mean: mean, Std: std}
}

// StdFor returns the z-score divisor for channel ch, guarded against
// malformed Stats: a missing entry (len(Std) < len(Mean), e.g. a truncated
// gob or a hand-built Stats) or a zero/near-zero deviation (flat training
// channel) clamps to 1 so the divide can neither panic nor emit ±Inf/NaN.
// Both the training-side Normalize and the live ingest path
// (control.Windower.Push) divide through this helper, keeping train and
// serve numerically identical.
//
//cogarm:zeroalloc
func (s Stats) StdFor(ch int) float64 {
	if ch >= len(s.Std) {
		return 1
	}
	if sd := s.Std[ch]; math.Abs(sd) > 1e-12 {
		return sd
	}
	return 1
}

// Normalize z-scores every window in place using the given stats and returns
// the same slice for chaining. Channels beyond len(st.Mean) pass through
// unchanged, and degenerate Std entries clamp to 1 (see Stats.StdFor) —
// the same guards the serving ingest path applies.
func Normalize(windows []Window, st Stats) []Window {
	for _, w := range windows {
		for t := 0; t < w.Data.Rows; t++ {
			row := w.Data.Row(t)
			for c := range row {
				if c >= len(st.Mean) {
					continue
				}
				row[c] = (row[c] - st.Mean[c]) / st.StdFor(c)
			}
		}
	}
	return windows
}

// Balance subsamples so every class has the count of the rarest class,
// preventing classifier bias (§III-D4). Selection is deterministic given rng.
func Balance(windows []Window, rng *tensor.RNG) []Window {
	byClass := map[eeg.Action][]int{}
	for i, w := range windows {
		byClass[w.Label] = append(byClass[w.Label], i)
	}
	minCount := math.MaxInt
	for _, idx := range byClass {
		if len(idx) < minCount {
			minCount = len(idx)
		}
	}
	if minCount == math.MaxInt {
		return nil
	}
	var out []Window
	for _, a := range eeg.Actions() {
		idx := byClass[a]
		if len(idx) == 0 {
			continue
		}
		perm := rng.Perm(len(idx))
		for i := 0; i < minCount; i++ {
			out = append(out, windows[idx[perm[i]]])
		}
	}
	Shuffle(out, rng)
	return out
}

// Shuffle permutes windows in place, deterministically for a given rng.
func Shuffle(windows []Window, rng *tensor.RNG) {
	for i := len(windows) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		windows[i], windows[j] = windows[j], windows[i]
	}
}

// ClassCounts tallies windows per class.
func ClassCounts(windows []Window) map[eeg.Action]int {
	counts := map[eeg.Action]int{}
	for _, w := range windows {
		counts[w.Label]++
	}
	return counts
}

// Split is one leave-one-subject-out fold: Train/Val from the other
// subjects (80:20), Test entirely from the held-out subject (§III-D1).
type Split struct {
	TestSubject      int
	Train, Val, Test []Window
}

// LOSO builds the leave-one-subject-out folds from per-subject window sets.
func LOSO(bySubject map[int][]Window, rng *tensor.RNG) []Split {
	var ids []int
	for id := range bySubject {
		ids = append(ids, id)
	}
	// sort for determinism
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	var splits []Split
	for _, test := range ids {
		var pool []Window
		for _, id := range ids {
			if id != test {
				pool = append(pool, bySubject[id]...)
			}
		}
		pool = append([]Window(nil), pool...)
		Shuffle(pool, rng)
		cut := len(pool) * 8 / 10
		splits = append(splits, Split{
			TestSubject: test,
			Train:       pool[:cut],
			Val:         pool[cut:],
			Test:        append([]Window(nil), bySubject[test]...),
		})
	}
	return splits
}

// FeatureVector extracts the Random-Forest feature set from Table III:
// mean, std, min, max, variance for every channel (5 × channels values).
func FeatureVector(w Window) []float64 {
	return FeatureVectorInto(nil, w)
}

// FeatureVectorInto is FeatureVector appending into dst[:0] — pass a buffer
// with capacity 5×channels (e.g. from a tensor.Workspace) for an
// allocation-free call on the serving hot path. The result is identical to
// FeatureVector.
//
// Where the cpu gate allows, an AVX2 routine takes the leading channels eight
// at a time (features_amd64.s); featuresPortable takes the rest — every
// channel on other architectures, under -tags purego and on CPUs without
// AVX2. Each channel accumulates its own column in ascending t with the same
// unfused operations either way, so which one ran changes no bit of any
// feature.
//
//cogarm:zeroalloc
func FeatureVectorInto(dst []float64, w Window) []float64 {
	nch := w.Data.Cols
	out := dst[:0]
	if cap(out) < 5*nch {
		//cogarm:allow zeroalloc -- feature-buffer warm-up when dst lacks capacity; steady state reuses it
		out = make([]float64, 0, 5*nch)
	}
	data := w.Data.Data[:w.Data.Rows*nch]
	out, from := features8(out, data, w.Data.Rows, nch)
	return featuresPortable(out, data, w.Data.Rows, nch, from)
}

// featuresPortable appends the features of channels c..nch-1. Channels are
// taken four at a time, one pass over the rows per group (see featureBlock),
// then singly.
//
//cogarm:zeroalloc
func featuresPortable(out, data []float64, rows, nch, c int) []float64 {
	n := float64(rows)
	var b featureBlock
	for ; c+4 <= nch; c += 4 {
		b.accumulate(data, c, nch)
		for k := 0; k < 4; k++ {
			lo, hi := keyFloat(b.lo[k]), keyFloat(b.hi[k])
			if lo == 0 || hi == 0 || lo != lo || hi != hi {
				// The keys rank −0 below +0 and NaNs beyond ±Inf; < does
				// neither. Only a zero or NaN extreme can show the difference.
				lo, hi = columnMinMax(data, c+k, nch)
			}
			out = appendFeatures(out, b.sum[k], b.sq[k], n, lo, hi)
		}
	}
	for ; c < nch; c++ {
		var sum, sq float64
		for i := c; i < len(data); i += nch {
			v := data[i]
			sum += v
			sq += v * v
		}
		lo, hi := columnMinMax(data, c, nch)
		out = appendFeatures(out, sum, sq, n, lo, hi)
	}
	return out
}

// appendFeatures appends one channel's five features, derived from its sum,
// sum of squares and extremes over n rows.
//
//cogarm:zeroalloc
func appendFeatures(out []float64, sum, sq, n, lo, hi float64) []float64 {
	mean := sum / n
	variance := sq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return append(out, mean, math.Sqrt(variance), lo, hi, variance)
}

// columnMinMax defines the min and max features of channel c of a row-major
// window: the first smallest and first largest value under <, starting from
// ±Inf — so a NaN is never selected and of −0 and +0 the earlier one stays.
//
//cogarm:zeroalloc
func columnMinMax(data []float64, c, cols int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := c; i < len(data); i += cols {
		v := data[i]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// orderKey maps a float64 to an int64 that sorts as the float does: the bits
// as they are for a positive value, the low 63 bits flipped for a negative
// one. Integer compares of keys compile to conditional moves where float
// compares compile to branches — and a running minimum over a fresh window
// mispredicts on every new extreme. keyFloat is the inverse.
//
//cogarm:zeroalloc
func orderKey(v float64) int64 {
	b := int64(math.Float64bits(v))
	return b ^ int64(uint64(b>>63)>>1)
}

//cogarm:zeroalloc
func keyFloat(k int64) float64 {
	return math.Float64frombits(uint64(k ^ int64(uint64(k>>63)>>1)))
}

var keyPosInf, keyNegInf = orderKey(math.Inf(1)), orderKey(math.Inf(-1))

// featureBlock holds one group of four adjacent channels' accumulators: sum
// and sum of squares, and the order keys of the column's extremes.
type featureBlock struct {
	sum, sq [4]float64
	lo, hi  [4]int64
}

// accumulate walks the rows once for channels c..c+3 with every accumulator
// in a register: a row's four values are contiguous, so the pass reads whole
// cache lines where a per-channel loop reads one value per stride, and four
// independent add chains overlap where one waits on itself. It is its own
// function so the loop has the register file to itself.
//
//cogarm:zeroalloc
func (b *featureBlock) accumulate(data []float64, c, cols int) {
	var sum0, sum1, sum2, sum3, sq0, sq1, sq2, sq3 float64
	lo0, lo1, lo2, lo3 := keyPosInf, keyPosInf, keyPosInf, keyPosInf
	hi0, hi1, hi2, hi3 := keyNegInf, keyNegInf, keyNegInf, keyNegInf
	for i := c; i+4 <= len(data); i += cols {
		r := data[i : i+4 : i+4]
		v0, v1, v2, v3 := r[0], r[1], r[2], r[3]
		sum0 += v0
		sum1 += v1
		sum2 += v2
		sum3 += v3
		sq0 += v0 * v0
		sq1 += v1 * v1
		sq2 += v2 * v2
		sq3 += v3 * v3
		k0, k1, k2, k3 := orderKey(v0), orderKey(v1), orderKey(v2), orderKey(v3)
		if k0 < lo0 {
			lo0 = k0
		}
		if k1 < lo1 {
			lo1 = k1
		}
		if k2 < lo2 {
			lo2 = k2
		}
		if k3 < lo3 {
			lo3 = k3
		}
		if k0 > hi0 {
			hi0 = k0
		}
		if k1 > hi1 {
			hi1 = k1
		}
		if k2 > hi2 {
			hi2 = k2
		}
		if k3 > hi3 {
			hi3 = k3
		}
	}
	b.sum = [4]float64{sum0, sum1, sum2, sum3}
	b.sq = [4]float64{sq0, sq1, sq2, sq3}
	b.lo = [4]int64{lo0, lo1, lo2, lo3}
	b.hi = [4]int64{hi0, hi1, hi2, hi3}
}

// Build runs the full pipeline for a set of subjects: collect sessions,
// preprocess, segment, normalise per subject, and balance. It returns windows
// grouped by subject, ready for LOSO.
func Build(subjectIDs []int, sessions int, proto Protocol, windowSize int, seed uint64) (map[int][]Window, error) {
	rng := tensor.NewRNG(seed)
	bySubject := make(map[int][]Window, len(subjectIDs))
	for _, id := range subjectIDs {
		subj := eeg.NewSubject(id)
		var all []Window
		for s := 0; s < sessions; s++ {
			rec := Collect(subj, s, proto, seed+uint64(id)*101+uint64(s))
			clean, err := Preprocess(rec)
			if err != nil {
				return nil, err
			}
			ws, err := Segment(clean, DefaultSegment(windowSize))
			if err != nil {
				return nil, err
			}
			all = append(all, ws...)
		}
		Normalize(all, ComputeStats(all))
		bySubject[id] = Balance(all, rng.Fork())
	}
	return bySubject, nil
}
