package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the share
// of the parent's median an end-to-end metric may worsen by before a change
// counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec mirrors BENCHMARK.json, the contract later changes are held to.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

const specFile = "BENCHMARK.json"

// endToEnd names the metrics an untraced run reports, with their units.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"decisions_per_s", "1/s"}, {"cmd_latency_ms_p50", "ms"}, {"cmd_latency_ms_p95", "ms"},
	{"cpu_ms_per_kdecision", "ms"}, {"peak_rss_mb", "MB"}, {"recover_ms", "ms"}, {"durable_bytes_per_decision", "bytes"},
}

// perLayer names the metrics a traced run reports, with their units. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = [][2]string{
	{"serve.tick_ms_p50", "ms"}, {"serve.tick_ms_p95", "ms"},
	{"serve.drain_us_per_tick", "us"}, {"serve.self_us_per_tick", "us"},
	{"models.infer_us_per_window", "us"}, {"models.infer_share_pct", "%"},
	{"serve.allocs_per_tick", "count"}, {"serve.mean_batch", "count"}, {"serve.shard_skew_pct", "%"},
	{"control.window_push_ns_per_sample", "ns"},
	{"rf.predict_us_per_window_b50", "us"}, {"rf.qforest_us_per_window_b50", "us"},
	{"nn.cnn_us_per_window_b50", "us"}, {"nn.cnn_q8_us_per_window_b50", "us"},
	{"tensor.gemm_serial_gflops", "gflops"}, {"tensor.gemm_pool_gflops", "gflops"}, {"tensor.matmulq_gops", "gops"},
	{"stream.wire_to_ring_us_p50", "us"}, {"stream.wire_to_ring_us_p95", "us"},
	{"stream.ring_wait_ms_p50", "ms"}, {"stream.ring_backlog_samples_p95", "count"},
	{"stream.udp_ingest_us_per_datagram", "us"}, {"stream.decode_ns_per_sample", "ns"},
	{"stream.decode_allocs_per_sample", "count"}, {"stream.ring_ns_per_sample", "ns"},
	{"stream.dropped_frames", "count"}, {"stream.ring_overwrites", "count"}, {"stream.samples_lost", "count"},
	{"serve.journal_flush_us_per_tick", "us"}, {"serve.journal_bytes_per_tick", "bytes"},
	{"serve.capture_state_ms", "ms"},
	{"wal.append_seal_mb_per_s", "MB/s"}, {"wal.seal_fsync_ms_p50", "ms"}, {"wal.verify_mb_per_s", "MB/s"},
	{"checkpoint.incremental_ms", "ms"}, {"checkpoint.incremental_bytes", "bytes"},
	{"checkpoint.full_ms", "ms"}, {"checkpoint.full_bytes", "bytes"}, {"checkpoint.load_ms", "ms"},
	{"wal.replay_ms", "ms"}, {"serve.restore_ms", "ms"},
	{"cluster.replicate_ms_per_sweep", "ms"}, {"cluster.replicate_errors", "count"},
	{"obs.telemetry_overhead_pct", "%"},
	{"bench.generator_lag_ms_p95", "ms"}, {"bench.tick_start_lag_ms_p95", "ms"}, {"bench.trace_overhead_pct", "%"},
}

// unitOf returns the unit a metric is reported in.
func unitOf(name string) string {
	for _, list := range [][][2]string{endToEnd, perLayer} {
		for _, m := range list {
			if m[0] == name {
				return m[1]
			}
		}
	}
	panic("bench: metric " + name + " has no declared unit") // a typo in this package, nothing else
}

// loadSpec reads and validates the BENCHMARK.json at path.
func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate holds the file to the benchmark contract's limits and to this
// package: the workloads and metrics it declares must be exactly the ones the
// code runs and reports, or a later change would be gated on a number nobody
// prints.
func (s *benchSpec) validate() error {
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	if len(s.Command) == 0 || len(s.Paths) == 0 {
		return fmt.Errorf("command and paths must be set")
	}
	seen := map[string]bool{}
	unique := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	if len(s.Workloads) != len(workloads) {
		return fmt.Errorf("%d workloads declared, %d run", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if err := unique(w.Name); err != nil {
			return err
		}
		if w.Name != workloads[i].name {
			return fmt.Errorf("workload %d is %q, the suite runs %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %q: why must be 1..200 characters", w.Name)
		}
	}
	for _, list := range []struct {
		kind     string
		declared []metricSpec
		reported [][2]string
		bounded  bool
	}{{"end-to-end", s.EndToEnd, endToEnd, true}, {"per-layer", s.PerLayer, perLayer, false}} {
		if len(list.declared) != len(list.reported) {
			return fmt.Errorf("%d %s metrics declared, %d reported", len(list.declared), list.kind, len(list.reported))
		}
		for i, m := range list.declared {
			if err := unique(m.Name); err != nil {
				return err
			}
			if want := list.reported[i]; m.Name != want[0] || m.Unit != want[1] || !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("%s metric %d is %q [%s], the suite reports %q [%s]", list.kind, i, m.Name, m.Unit, want[0], want[1])
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %q: better must be lower or higher", m.Name)
			}
			if list.bounded != (m.Bound != nil) || (list.bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				return fmt.Errorf("metric %q: end-to-end metrics carry a bound in (0, 0.25], per-layer ones none", m.Name)
			}
		}
	}
	return nil
}
