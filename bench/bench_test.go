package main

import (
	"encoding/json"
	"testing"
	"time"
)

// smokeParams is a run small enough for tier-1: 8 sessions, a third of a
// second, one set-up, through exactly the code the full run uses — reference
// check, continuation check and sample conservation included.
func smokeParams(t *testing.T, workload string, traced bool) params {
	return params{workload: workload, seed: 7, seconds: 0.3, sessions: 8, traced: traced,
		setups: 1, restores: 2, tmp: t.TempDir()}
}

func TestSmokeUntraced(t *testing.T) {
	t.Parallel() // with TestSmokeTraced: the paced runs are mostly waiting for their schedule
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := run(smokeParams(t, w.name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d", res.Correct, res.Attempted)
			}
			// The paced workload shares two cores with seven other subtests
			// here, so a late tick is the test's doing; the others must not fail.
			if !w.paced && res.Failed != 0 {
				t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Fatalf("reported %d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m[0]]
				if !ok || got.Value <= 0 || got.Unit != m[1] {
					t.Errorf("%s = %+v (present %v): end-to-end metrics are never 0", m[0], got, ok)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("result line: %v", err)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	t.Parallel()
	// What each workload's traced run must have measured, beyond the tick
	// spans every one of them records.
	want := map[string][]string{
		"flatout-rf":   {"models.infer_us_per_window", "control.window_push_ns_per_sample", "rf.predict_us_per_window_b50"},
		"flatout-cnn":  {"models.infer_us_per_window", "nn.cnn_us_per_window_b50", "tensor.gemm_serial_gflops", "tensor.matmulq_gops"},
		"paced-udp-rf": {"stream.wire_to_ring_us_p50", "stream.decode_ns_per_sample", "bench.generator_lag_ms_p95"},
		"durable-rf":   {"serve.journal_flush_us_per_tick", "checkpoint.full_ms", "wal.replay_ms", "serve.restore_ms", "cluster.replicate_ms_per_sweep", "wal.append_seal_mb_per_s"},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			p := smokeParams(t, w.name, true)
			p.traceOut = p.tmp + "/trace.json"
			res, err := run(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("reported %d metrics, want all %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			for _, name := range append(want[w.name], "serve.tick_ms_p50", "serve.self_us_per_tick", "serve.mean_batch") {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want it measured", name, res.Metrics[name].Value)
				}
			}
			if !w.paced && res.Metrics["serve.drain_us_per_tick"].Value > 0.05*1e3*res.Metrics["serve.tick_ms_p50"].Value {
				t.Errorf("drain %v us of a %v ms tick: the load generator is inside the tick",
					res.Metrics["serve.drain_us_per_tick"].Value, res.Metrics["serve.tick_ms_p50"].Value)
			}
		})
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{450, 95}, // the paced window: 22 ticks beyond p95, 4.5 beyond p99
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// A late generator must show as latency, not vanish: datagrams are stamped
// with the time they were due, and how late the generator ran is reported.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const late = 100 * time.Millisecond
	g, err := newUDPRig(traceSet(1, 1), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	g.start(-late) // burst 0 was due 100 ms ago: the generator starts behind schedule
	for deadline := time.Now().Add(5 * time.Second); g.bursts.Load() < 8; {
		if time.Now().After(deadline) {
			t.Fatal("generator sent nothing")
		}
		time.Sleep(time.Millisecond)
	}
	g.halt()
	src := g.srcs[0]
	got := src.ReadInto(nil, 0)
	if len(got) < 8 {
		t.Fatalf("inlet delivered %d of at least 8 datagrams", len(got))
	}
	for _, s := range got {
		if want := g.t0 + float64(s.Seq)*g.period; s.Timestamp != want {
			t.Fatalf("datagram %d stamped %v, want its due time %v", s.Seq, s.Timestamp, want)
		}
	}
	if g.lagMs[0] < ms(late) {
		t.Errorf("burst 0 reported %.1f ms late, was at least %v late", g.lagMs[0], late)
	}
	// The latency a tick ending now would book for the first datagram counts
	// from its due time, so it includes the generator's lateness.
	if lat := 1e3 * (g.clock.Now() - got[0].Timestamp); lat < ms(late) {
		t.Errorf("latency from due time %.1f ms, want at least %v", lat, late)
	}
	if src.newest != got[len(got)-1].Timestamp || src.consumed != uint64(len(got)) {
		t.Errorf("source booked newest %v consumed %d, want %v and %d", src.newest, src.consumed, got[len(got)-1].Timestamp, len(got))
	}
}

func TestSelfTimeIsSpanMinusChildCoverage(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: noSpan, name: spanTick},
		{start: 10, end: 30, parent: 0, name: spanDrain},
		{start: 20, end: 50, parent: 0, name: spanDrain},  // overlaps the first: two shards at once
		{start: 60, end: 120, parent: 0, name: spanInfer}, // runs past its parent: clipped
		{start: 65, end: 70, parent: 3, name: spanDrain},  // grandchild: the tick's child covers it
	}
	// Children cover [10,50] and [60,100] of the tick: 80 of 100.
	want := []int64{20, 20, 30, 55, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTickCostsDropTruncatedTick(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: noSpan, tick: 1, name: spanTick},
		{start: 10, end: 30, parent: 0, tick: 1, name: spanDrain, arg: 8},
		{start: 40, end: 90, parent: 0, tick: 1, name: spanInfer, arg: 50},
		{start: 95, end: 99, parent: noSpan, tick: 1, name: spanFlush},
		{start: 200, end: 300, parent: noSpan, tick: 2, name: spanTick},
	}
	if got := tickCosts(spans, false); len(got) != 2 {
		t.Fatalf("%d ticks, want 2", len(got))
	}
	got := tickCosts(spans, true)
	if len(got) != 1 || got[0] != (tickCost{tickNs: 100, drainNs: 20, inferNs: 50, windows: 50}) {
		t.Fatalf("truncated trace gave %+v, want tick 1 alone", got)
	}
}

func TestSpecMatchesSuite(t *testing.T) {
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Command[len(spec.Command)-1] != "./"+spec.Paths[0] {
		t.Errorf("command %v does not run paths %v", spec.Command, spec.Paths)
	}
	// 4 builds-and-warm-ups plus 22 runs per workload must fit the driver's
	// 3420 s with each run's set-up, epilogue and go-run start-up on top.
	if runs := 4 + 22*len(spec.Workloads); float64(runs)*(float64(spec.RunSeconds)+14) > 3420 {
		t.Errorf("%d runs of %d s cannot fit the driver's budget", runs, spec.RunSeconds)
	}
}
