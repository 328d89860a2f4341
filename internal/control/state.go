package control

import (
	"fmt"

	"cognitivearm/internal/eeg"
)

// WindowerState is the portable snapshot of a Windower: everything beyond the
// construction parameters (rate, channels, window size, norm stats) that the
// next Push depends on. It is what internal/checkpoint persists per session so
// a restarted fleet emits bitwise-identical labels: the partially filled
// rolling window and the per-channel causal filter delay state.
type WindowerState struct {
	// Filled is the number of valid rows currently in the rolling window.
	Filled int
	// Window is the row-major contents of the rolling buffer
	// (WindowSize × Channels values, only the first Filled rows meaningful).
	Window []float64
	// Filter holds each channel's filter delay state: [z1, z2] per biquad
	// section, band-pass sections first, then the notch (signal.Bank.State,
	// one slice per channel).
	Filter [][]float64
}

// State exports the Windower's resumable state: the window in logical order
// (oldest row first, whatever the write position), the filter state per
// channel. The returned slices are copies; mutating them does not affect
// the Windower.
func (w *Windower) State() WindowerState {
	return WindowerState{
		Filled: w.filled,
		Window: append([]float64(nil), w.view.Data...),
		Filter: w.bank.State(),
	}
}

// StateView fills st with the Windower's state without copying the window:
// st.Window aliases the rolling buffer and is valid only until the next Push,
// and st.Filter reuses st's own slices (Bank.StateInto). It is State for a
// caller that serialises the state before the session can tick again — the
// capture does, under the shard lock — and then allocates nothing.
func (w *Windower) StateView(st *WindowerState) {
	st.Filled = w.filled
	st.Window = w.view.Data
	st.Filter = w.bank.StateInto(st.Filter)
}

// SetState restores a snapshot taken by State into a Windower built with the
// same construction parameters. It rejects snapshots whose dimensions do not
// match the receiver — a mismatched window length, channel count or filter
// order means the checkpoint was taken from a differently configured session
// — and checks all of them before it writes anything: a refused snapshot
// leaves the Windower exactly as it was.
func (w *Windower) SetState(st WindowerState) error {
	rows := w.view.Rows
	if st.Filled < 0 || st.Filled > rows {
		return fmt.Errorf("control: windower state filled=%d, window holds %d rows", st.Filled, rows)
	}
	if len(st.Window) != len(w.view.Data) {
		return fmt.Errorf("control: windower state has %d window values, want %d", len(st.Window), len(w.view.Data))
	}
	if err := w.bank.SetState(st.Filter); err != nil { // validates before it writes
		return fmt.Errorf("control: windower state: %w", err)
	}
	// The snapshot is in logical order, so it lands at row 0 of both halves
	// and the next write goes to row Filled (row 0 of a full window).
	copy(w.buf, st.Window)
	copy(w.buf[len(st.Window):], st.Window)
	w.filled = st.Filled
	w.pos = st.Filled % rows
	w.setView()
	return nil
}

// DebouncerState is the portable snapshot of a Debouncer's label history.
type DebouncerState struct {
	// Recent is the label ring in storage order (SmoothingWindow entries).
	Recent []int
	// Head is the next write slot; N is the saturating observed count.
	Head, N int
}

// State exports the debounce history.
func (d *Debouncer) State() DebouncerState {
	var st DebouncerState
	d.StateInto(&st)
	return st
}

// StateInto is State into st, reusing st.Recent when it is large enough.
func (d *Debouncer) StateInto(st *DebouncerState) {
	if cap(st.Recent) < SmoothingWindow {
		st.Recent = make([]int, SmoothingWindow)
	}
	st.Recent = st.Recent[:SmoothingWindow]
	for i, a := range d.recent {
		st.Recent[i] = int(a)
	}
	st.Head, st.N = d.head, d.n
}

// SetState restores a snapshot taken by State, validating ranges so a
// corrupted checkpoint cannot put the ring cursor out of bounds.
func (d *Debouncer) SetState(st DebouncerState) error {
	if len(st.Recent) != SmoothingWindow {
		return fmt.Errorf("control: debouncer state has %d labels, want %d", len(st.Recent), SmoothingWindow)
	}
	if st.Head < 0 || st.Head >= SmoothingWindow || st.N < 0 || st.N > SmoothingWindow {
		return fmt.Errorf("control: debouncer state head=%d n=%d out of range", st.Head, st.N)
	}
	for i, a := range st.Recent {
		d.recent[i] = eeg.Action(a)
	}
	d.head = st.Head
	d.n = st.N
	return nil
}
