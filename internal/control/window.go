package control

import (
	"fmt"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/signal"
	"cognitivearm/internal/tensor"
)

// Windower is the ingest stage of a closed loop: causal filtering of every
// channel, training-stats normalisation, and a WindowSize×Channels rolling
// buffer of the most recent samples. The one closed loop that runs it is
// the session tick of internal/serve, which core.Controller's single-subject
// loop runs too, so the arm and the fleet see the same signal path. A Windower is
// single-session state and must not be shared across goroutines.
//
// The rolling buffer never shifts: buf holds 2·rows rows and every filtered
// row is written twice, at pos and at pos+rows, so the latest rows samples
// are always one contiguous row-major run — rows [pos, pos+rows) once the
// window has wrapped, rows [0, rows) while it is still filling. view is the
// Windower-owned matrix header Window returns, re-sliced onto that run by
// every Push.
type Windower struct {
	bank *signal.Bank
	// mean and std are the normalisation constants resolved at construction
	// (std through Stats.StdFor); channels beyond len(mean) pass through.
	mean, std []float64
	buf       []float64
	view      tensor.Matrix
	pos       int // next write row, in [0, rows)
	filled    int
}

// NewWindower builds the ingest stage for one session. norm holds the
// subject's training normalisation constants, applied to live samples
// exactly as during training (§V-A); a zero-value Stats disables
// normalisation.
func NewWindower(sampleRateHz float64, channels, windowSize int, norm dataset.Stats) (*Windower, error) {
	if channels < 1 || windowSize < 1 {
		return nil, fmt.Errorf("control: windower needs positive channels (%d) and window (%d)", channels, windowSize)
	}
	pre, err := signal.NewEEGPreprocessor(sampleRateHz)
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	// StdFor guards the divisor: a Stats with len(Std) < len(Mean) or a flat
	// training channel (zero std) must neither panic the serving shard nor
	// feed ±Inf/NaN to every classifier downstream.
	mean := append([]float64(nil), norm.Mean[:min(len(norm.Mean), channels)]...)
	std := make([]float64, len(mean))
	for ch := range std {
		std[ch] = norm.StdFor(ch)
	}
	buf := make([]float64, 2*windowSize*channels)
	return &Windower{
		bank: signal.NewBank(channels, pre.Bandpass, pre.Notch),
		mean: mean, std: std,
		buf:  buf,
		view: tensor.Matrix{Rows: windowSize, Cols: channels, Data: buf[:windowSize*channels]},
	}, nil
}

// Push filters one raw sample and appends it to the rolling window. Samples
// with fewer values than the window's channel count are dropped (reported
// false): network-fed sessions receive attacker-controlled channel counts on
// the wire, and a short sample must not panic the serving shard.
func (w *Windower) Push(values []float64) bool {
	rows, cols := w.view.Rows, w.view.Cols
	if len(values) < cols {
		return false
	}
	row := w.buf[w.pos*cols:][:cols]
	copy(row, values)
	w.bank.Process(row)
	std := w.std
	for ch, m := range w.mean {
		row[ch] = (row[ch] - m) / std[ch]
	}
	copy(w.buf[(w.pos+rows)*cols:], row)
	if w.pos++; w.pos == rows {
		w.pos = 0
	}
	if w.filled < rows {
		w.filled++
	}
	w.setView()
	return true
}

// setView points the window header at the latest rows: from row 0 while the
// window fills (and when a full window's next write is row 0), from pos once
// it has wrapped.
func (w *Windower) setView() {
	first := 0
	if w.filled == w.view.Rows {
		first = w.pos
	}
	n := w.view.Rows * w.view.Cols
	w.view.Data = w.buf[first*w.view.Cols:][:n:n]
}

// Ready reports whether enough samples have accumulated to classify.
func (w *Windower) Ready() bool { return w.filled == w.view.Rows }

// Window exposes the rolling buffer for classification without copying: one
// contiguous row-major matrix, oldest row first. The header is owned by the
// Windower — the same pointer on every call — and every Push re-slices it
// and overwrites the rows behind it; classify before pushing more samples,
// or use WindowInto for a stable copy. The serving shard reads it zero-copy:
// within one tick, every ready window is classified before any session
// receives further pushes, so the aliasing is safe (see ARCHITECTURE.md
// "Memory model").
func (w *Windower) Window() *tensor.Matrix { return &w.view }

// WindowInto copies the rolling buffer into dst and returns it, allocating
// only when dst is nil or mis-shaped. Callers that must hold a window across
// subsequent Push calls (deferred classification, cross-tick buffering) use
// this with a reused dst instead of cloning Window() every tick.
func (w *Windower) WindowInto(dst *tensor.Matrix) *tensor.Matrix {
	if dst == nil || dst.Rows != w.view.Rows || dst.Cols != w.view.Cols {
		dst = tensor.New(w.view.Rows, w.view.Cols)
	}
	copy(dst.Data, w.view.Data)
	return dst
}

// Size returns the window length in samples.
func (w *Windower) Size() int { return w.view.Rows }

// Debouncer is the actuation debounce of a serving session, and so of
// core.Controller's one-session loop too: a label only counts as agreed
// when it holds a SmoothingWindow−1 supermajority over the last
// SmoothingWindow labels, absorbing the strays produced while the rolling
// window straddles an intent transition. The history lives in a fixed-size
// ring: the previous append+reslice pattern shifted the backing array on
// every decoded label, churning memory for the lifetime of a serving
// session. The zero value is ready to use.
type Debouncer struct {
	recent [SmoothingWindow]eeg.Action
	head   int // next write slot
	n      int // labels observed, saturating at SmoothingWindow
}

// Observe records one decoded label and reports whether the debounce agrees
// on it.
func (d *Debouncer) Observe(a eeg.Action) bool {
	d.recent[d.head] = a
	d.head++
	if d.head == SmoothingWindow {
		d.head = 0
	}
	if d.n < SmoothingWindow {
		d.n++
		if d.n < SmoothingWindow {
			return false
		}
	}
	votes := 0
	for _, r := range d.recent {
		if r == a {
			votes++
		}
	}
	return votes >= SmoothingWindow-1
}
