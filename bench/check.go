package main

import (
	"fmt"

	"cognitivearm/internal/control"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/stream"
)

// sessionCounts is what the output checks compare: the decode counters
// serve.SessionStats exposes, as plain comparable values.
type sessionCounts struct {
	decoded, agreed uint64
	actions         [eeg.NumActions]uint64
}

func countsOf(st serve.SessionStats) sessionCounts {
	c := sessionCounts{decoded: st.Decoded, agreed: st.Agreed}
	for a, n := range st.Actions {
		if int(a) >= 0 && int(a) < len(c.actions) {
			c.actions[a] = n
		}
	}
	return c
}

// referenceCounts runs one session the long way round — its own Windower, one
// Predict per window, its own Debouncer — over the first ticks of trace, with
// the hub's fractional samples-per-tick schedule (125/15, carried remainder).
// It shares no code path with the hub's batched, sharded tick, so agreement
// means the fleet computed what a single subject's loop would have.
func referenceCounts(m model, trace []stream.Sample, ticks int) (sessionCounts, error) {
	win, err := control.NewWindower(eeg.SampleRate, eeg.NumChannels, m.clf.WindowSize(), m.norm)
	if err != nil {
		return sessionCounts{}, err
	}
	var (
		deb control.Debouncer
		out sessionCounts
		acc float64
		pos int
	)
	for t := 0; t < ticks; t++ {
		acc += eeg.SampleRate / tickHz
		n := int(acc)
		acc -= float64(n)
		for i := 0; i < n; i++ {
			win.Push(trace[pos].Values)
			if pos++; pos == len(trace) {
				pos = 0
			}
		}
		if n == 0 || !win.Ready() {
			continue
		}
		label := m.clf.Predict(win.Window())
		out.decoded++
		if label >= 0 && label < len(out.actions) {
			out.actions[label]++
		}
		if deb.Observe(eeg.Action(label)) {
			out.agreed++
		}
	}
	return out, nil
}

// checkAgainstReference compares the first checkSessions sessions of a fleet
// that has run exactly ticks ticks with the independent reference.
func checkAgainstReference(f *replayFleet, m model, ticks int) error {
	n := checkSessions
	if n > len(f.ids) {
		n = len(f.ids)
	}
	for i := 0; i < n; i++ {
		st, ok := f.hub.Session(f.ids[i])
		if !ok {
			return fmt.Errorf("bench: output check: session %d left the hub", i)
		}
		want, err := referenceCounts(m, f.srcs[i].trace, ticks)
		if err != nil {
			return err
		}
		if got := countsOf(st); got != want {
			return fmt.Errorf("bench: output check: session %d after %d ticks: hub %+v, reference %+v", i, ticks, got, want)
		}
	}
	return nil
}

// fleetCounts snapshots every session's counters, in admission order.
func fleetCounts(hub *serve.Hub, ids []serve.SessionID) ([]sessionCounts, error) {
	out := make([]sessionCounts, len(ids))
	for i, id := range ids {
		st, ok := hub.Session(id)
		if !ok {
			return nil, fmt.Errorf("bench: session %d (id %d) not in hub", i, id)
		}
		out[i] = countsOf(st)
	}
	return out, nil
}
