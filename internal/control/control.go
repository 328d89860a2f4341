// Package control is the signal path every closed loop shares (§IV-A): the
// Windower filters, normalises and windows a session's EEG samples, and the
// Debouncer gates the classifier's labels before they move anything. Both
// carry resumable state (WindowerState, DebouncerState) for fleet
// checkpoints. The single-subject Controller that drives an arm with them
// lives in internal/core; the serving hub (internal/serve) runs them per
// session. The package imports no hardware model, so serving does not
// depend on one.
package control

// ClassifyRateHz is the paper's action-label rate (§IV-A3).
const ClassifyRateHz = 15

// SmoothingWindow is the actuation debounce: the arm moves only when this
// many consecutive labels agree, absorbing the stray labels produced while
// the rolling window still straddles an intent transition.
const SmoothingWindow = 5
