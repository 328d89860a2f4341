// Package control is the signal path every closed loop shares (§IV-A): the
// Windower filters, normalises and windows a session's EEG samples, and the
// Debouncer gates the classifier's labels before they move anything. Both
// carry resumable state (WindowerState, DebouncerState) for fleet
// checkpoints. One loop runs them: the serving hub's session tick
// (internal/serve), which internal/core's single-subject Controller also
// runs, as a one-session hub that drives an arm from the session's sink.
// The package imports no hardware model, so serving does not depend on one.
package control

// ClassifyRateHz is the paper's action-label rate (§IV-A3).
const ClassifyRateHz = 15

// SmoothingWindow is the actuation debounce: the arm moves only when this
// many consecutive labels agree, absorbing the stray labels produced while
// the rolling window still straddles an intent transition.
const SmoothingWindow = 5
