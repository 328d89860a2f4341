package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one reported number; n is the sample count behind it, printed
// beside it and left out of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// result is one run's report. Its JSON form is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are context lines for the human reader (sample counts behind a
	// percentile, the residual of the tick decomposition).
	notes []string
}

func (res *result) set(name string, value float64, n int) {
	res.Metrics[name] = metric{Value: value, Unit: unitOf(name), n: n}
}

func (res *result) note(format string, args ...any) {
	res.notes = append(res.notes, fmt.Sprintf(format, args...))
}

// run executes one workload once: set-up (repeated, for a steady setup_s),
// the output check, then either the untraced window and recovery epilogue
// (end-to-end metrics) or the traced pass and probes (per-layer metrics).
// Any failed check returns an error and no metrics.
func run(p params) (*result, error) {
	w, ok := findWorkload(p.workload)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", p.workload)
	}
	var tr *tracer
	if p.traced {
		tr = newTracer(spanCapacity(p))
	}
	var (
		r      *rig
		setupS []float64
		err    error
	)
	for i := 0; i < p.setups; i++ {
		if r != nil {
			// Return the previous fleet's memory before building the next, or
			// peak_rss_mb would count set-ups, not serving.
			r.close()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if r, err = setup(w, p, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer r.close()
	if r.replay != nil {
		if err := checkAgainstReference(r.replay, r.m, r.ticks); err != nil {
			return nil, err
		}
	}
	res := &result{Metrics: map[string]metric{}}
	if p.traced {
		err = r.runTraced(res)
	} else {
		err = r.runUntraced(res, setupS)
	}
	if err != nil {
		return nil, err
	}
	res.Correct, res.Attempted, res.Failed = true, r.ops.attempted, r.ops.failed
	return res, nil
}

// runUntraced produces the eight end-to-end metrics.
func (r *rig) runUntraced(res *result, setupS []float64) error {
	win, err := r.runWindow(r.p.seconds, false)
	if err != nil {
		return err
	}
	st := reduce(win.cycles, false)
	rec, err := r.epilogue()
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}

	res.set("setup_s", median(setupS), len(setupS))
	res.set("decisions_per_s", st.perSec, st.n)
	// Closed loop: the newest sample is handed over when TickAll is called,
	// so command latency is the call. Paced: from the sample's due time.
	res.set("cmd_latency_ms_p50", st.latP50, st.n)
	res.set("cmd_latency_ms_p95", st.latP95, st.n)
	res.set("cpu_ms_per_kdecision", st.cpuPerK, st.n)
	res.set("peak_rss_mb", rss, 1)
	res.set("recover_ms", goodQuartile(rec.recoverMs, false), len(rec.recoverMs))
	bytesPer := st.bytesPer // durable-rf: a cycle is 15 flushes and a checkpoint
	switch {
	case r.w.paced:
		// The side goroutine flushes between cycles, not inside one: take the
		// window as a whole. The schedule fixes the decision count.
		var dec uint64
		for _, c := range win.cycles {
			dec += c.decisions
		}
		bytesPer = win.flushed / float64(dec)
	case !r.w.durable:
		// No journal during the window: the epilogue's own writes.
		bytesPer = rec.bytesPerDecide
	}
	res.set("durable_bytes_per_decision", bytesPer, st.n)

	res.note("%d cycles of %d ticks; per cycle the latency quantiles rest on %d samples, which support up to p%g",
		st.n, win.cycles[0].ticks, win.cycles[0].latN, supportedPercentile(win.cycles[0].latN))
	res.note("decisions/s per cycle: min %.0f, quartiles %.0f..%.0f, max %.0f", st.rateQ[0], st.rateQ[1], st.rateQ[2], st.rateQ[3])
	if r.w.paced {
		res.note("bench.generator_lag_ms_p95 %.3f ms over %d bursts; bench.tick_start_lag_ms_p95 %.3f ms",
			quantiles(r.udp.lagMs, 0.95)[0], len(r.udp.lagMs), quantiles(r.startLag, 0.95)[0])
		res.note("conservation: %+v", rec.conserved)
		r.ops.attempted += int(rec.conserved.sent)
		r.ops.failed += int(rec.conserved.lost)
	}
	res.note("GOMAXPROCS %d, %d shards, %d sessions, seed %d, %d setups",
		runtime.GOMAXPROCS(0), r.hub.Config().Shards, len(r.ids), r.p.seed, len(setupS))
	return nil
}
