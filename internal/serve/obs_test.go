package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/cpu"
	"cognitivearm/internal/models"
	"cognitivearm/internal/obs"
	"cognitivearm/internal/stream"
	"cognitivearm/internal/tensor"
)

// stallSource stalls the drain stage: every ReadInto sleeps long enough that the
// shard tick blows its budget, which is how we induce overload without a
// trained model in the loop.
type stallSource struct{ d time.Duration }

func (s *stallSource) ReadInto(dst []stream.Sample, _ int) []stream.Sample {
	time.Sleep(s.d)
	return dst
}

// stubClassifier satisfies models.Classifier without training anything.
type stubClassifier struct{}

func (stubClassifier) Predict(*tensor.Matrix) int     { return 0 }
func (stubClassifier) Probs(*tensor.Matrix) []float64 { return []float64{1, 0, 0} }
func (stubClassifier) NumParams() int                 { return 1 }
func (stubClassifier) WindowSize() int                { return 16 }
func (stubClassifier) Name() string                   { return "stub" }

func stubRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	if _, _, err := reg.GetOrBuild("stub", func() (models.Classifier, int64, error) {
		return stubClassifier{}, 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestHealthzFlips503UnderOverload drives a shard past its tick budget (a
// source that stalls the drain stage at 200 Hz) and asserts the failure is
// visible end to end: Hub.Health reports the overloaded shard and the admin
// plane's /healthz turns 503 with that error in the body.
func TestHealthzFlips503UnderOverload(t *testing.T) {
	cfg := Config{Shards: 1, MaxSessionsPerShard: 4, TickHz: 200, LatencyWindow: 8}
	hub, err := NewHub(cfg, stubRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Health(); err != nil {
		t.Fatalf("idle hub must be healthy, got %v", err)
	}
	if _, err := hub.Admit(SessionConfig{ModelKey: "stub", Source: &stallSource{d: 25 * time.Millisecond}}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.AdminMux(obs.AdminOptions{
		Registry: obs.NewRegistry(),
		Events:   obs.NewEventRing(16, 2),
		Health:   hub.Health,
	}))
	defer srv.Close()

	probe := func() int {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := probe(); code != http.StatusOK {
		t.Fatalf("pre-start probe = %d, want 200", code)
	}

	hub.Start()
	defer hub.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for hub.Health() == nil {
		if time.Now().After(deadline) {
			t.Fatal("hub never reported overload")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := hub.Health(); !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("health error %q should name the overloaded shard", err)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded probe = %d, want 503 (body %q)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Fatalf("503 body %q should carry the health error", body)
	}
}

// TestStatusDocRoundTrip serves a real fleet, renders /statusz through the
// admin mux, and decodes it back into a StatusDoc: field names, the fleet
// snapshot, the (empty) checkpoint chain, and the cluster section must all
// survive the JSON round trip.
func TestStatusDocRoundTrip(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 2, MaxSessionsPerShard: 8, TickHz: 60, LatencyWindow: 32}, reg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := hub.Admit(boardSession(t, p, 0, uint64(41+i))); err != nil {
			t.Fatal(err)
		}
	}
	hub.Start()
	defer hub.Stop()
	time.Sleep(120 * time.Millisecond) // a few ticks so counters move

	root := t.TempDir()
	srv := httptest.NewServer(obs.AdminMux(obs.AdminOptions{
		Registry: obs.NewRegistry(),
		Events:   obs.NewEventRing(16, 2),
		Health:   hub.Health,
		Status: func() any {
			return hub.Status(root, func() any { return map[string]string{"id": "node-a"} })
		},
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz = %d", resp.StatusCode)
	}

	var doc StatusDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("statusz JSON: %v\n%s", err, body)
	}
	if !doc.Healthy {
		t.Fatalf("fleet should be healthy: %s", doc.Health)
	}
	if doc.Fleet.Sessions != 2 {
		t.Fatalf("fleet sessions = %d, want 2", doc.Fleet.Sessions)
	}
	if doc.Goroutines <= 0 || doc.HeapBytes == 0 {
		t.Fatalf("runtime stats missing: %+v", doc)
	}
	if doc.Kernels != cpu.Kernels() || !strings.Contains(string(body), `"kernels": "`+cpu.Kernels()+`"`) {
		t.Fatalf("kernels = %q, want %q from the cpu gate\n%s", doc.Kernels, cpu.Kernels(), body)
	}
	if doc.Checkpoint == nil || doc.Checkpoint.Root != root || doc.Checkpoint.Seq != 0 {
		t.Fatalf("checkpoint section = %+v, want empty chain under %q", doc.Checkpoint, root)
	}
	cl, ok := doc.Cluster.(map[string]any)
	if !ok || cl["id"] != "node-a" {
		t.Fatalf("cluster section = %#v", doc.Cluster)
	}
	if doc.Fleet.Ticks == 0 {
		t.Fatal("fleet tick counter should have moved")
	}
}

// TestServeTelemetryExposed drives a real fleet briefly and asserts the
// admin plane's /metrics exports nonzero serving series — the integration
// seam between the shard instrumentation and the exposition format. A
// ring-fed session starts with a backlog, so the catch-up counter moves.
func TestServeTelemetryExposed(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 8, TickHz: 120, LatencyWindow: 32}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Admit(boardSession(t, p, 0, 7)); err != nil {
		t.Fatal(err)
	}
	ring := stream.NewRing(200)
	for _, smp := range scriptedEEG(0, 97, 200) {
		ring.Push(smp)
	}
	if _, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: RingSource{Ring: ring}, Norm: p.NormFor(0)}); err != nil {
		t.Fatal(err)
	}
	hub.Start()
	time.Sleep(150 * time.Millisecond)
	hub.Stop()

	srv := httptest.NewServer(obs.AdminMux(obs.AdminOptions{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, series := range []string{
		"cogarm_serve_ticks_total",
		"cogarm_serve_samples_total",
		"cogarm_serve_catchup_samples_total",
		`cogarm_serve_tick_stage_seconds_count{stage="drain"}`,
		`cogarm_serve_tick_stage_seconds_count{stage="window"}`,
		"cogarm_serve_tick_seconds_count",
	} {
		// The sample line starts a line; "# HELP <series> ..." does not.
		idx := strings.Index(out, "\n"+series+" ")
		if idx < 0 {
			t.Fatalf("series %q missing from exposition", series)
		}
		line := out[idx+1:]
		if nl := strings.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
		}
		if strings.HasSuffix(line, " 0") {
			t.Fatalf("series %q is zero after serving: %s", series, line)
		}
	}
}

// TestRestoredSessionsCountInGauge pins the live-sessions gauge across a
// restore: RestoreHub places sessions without admitting them, and the gauge
// must still rise by the restored count and return to its baseline when the
// restored hub stops.
func TestRestoredSessionsCountInGauge(t *testing.T) {
	gauge := newServeObs().sessions
	base := gauge.Value()
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 2, MaxSessionsPerShard: 4, TickHz: 15, LatencyWindow: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := hub.Admit(boardSession(t, p, 0, uint64(i)+1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := gauge.Value() - base; got != 3 {
		t.Fatalf("gauge rose by %v after 3 admissions, want 3", got)
	}
	hub.TickAll()
	state := hub.CaptureState()
	hub.Stop()
	if got := gauge.Value() - base; got != 0 {
		t.Fatalf("gauge delta %v after Stop, want 0", got)
	}

	restored, err := RestoreHub(state, func(RestoredSession) (Source, error) {
		return &scriptSource{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := gauge.Value() - base; got != float64(restored.Sessions()) || got != 3 {
		t.Fatalf("gauge rose by %v after restoring %d sessions, want 3", got, restored.Sessions())
	}
	restored.Stop()
	if got := gauge.Value() - base; got != 0 {
		t.Fatalf("gauge delta %v after the restored hub's Stop, want 0", got)
	}
}

// serveSeries returns every cogarm_serve_* sample line of the process-global
// registry, in exposition order.
func serveSeries(t *testing.T) []string {
	t.Helper()
	var buf strings.Builder
	if err := obs.Default().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "cogarm_serve_") {
			out = append(out, line)
		}
	}
	return out
}

// TestDisabledTelemetryServesIdentically drives a DisableTelemetry hub
// through admit, a refusal at the static cap, ticks, idle eviction,
// ExtractSession and Stop: it must record no cogarm_serve_* series and no
// lifecycle event, and its sessions must decode exactly what a
// telemetry-on hub decodes from the same scripted input. The two hubs run
// one after the other because the registry is process-global.
func TestDisabledTelemetryServesIdentically(t *testing.T) {
	reg, p := testFleet(t)
	newServeObs() // register the series, so "unchanged" compares real lines
	streamA := scriptedEEG(0, 41, 600)
	streamB := scriptedEEG(0, 97, 600)
	burst := scriptedEEG(0, 13, 40)

	run := func(disable bool) (trace [][]SessionStats, extracted []byte) {
		t.Helper()
		hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 3, TickHz: 15, MaxIdleTicks: 3,
			LatencyWindow: 16, DisableTelemetry: disable}, reg)
		if err != nil {
			t.Fatal(err)
		}
		ring := stream.NewRing(len(burst))
		for _, smp := range burst {
			ring.Push(smp)
		}
		var ids []SessionID
		for _, src := range []Source{&scriptSource{samples: streamA}, &scriptSource{samples: streamB}, RingSource{Ring: ring}} {
			id, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: src, Norm: p.NormFor(0)})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if _, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: &scriptSource{}, Norm: p.NormFor(0)}); !errors.Is(err, ErrFleetFull) {
			t.Fatalf("fourth admission returned %v, want ErrFleetFull", err)
		}
		for i := 0; i < 30; i++ {
			trace = append(trace, tickStats(t, hub, ids[:2]))
		}
		if _, ok := hub.Session(ids[2]); ok {
			t.Fatal("the burst session was not idle-evicted")
		}
		rec, ok := hub.ExtractSession(ids[1])
		if !ok {
			t.Fatal("ExtractSession found no session")
		}
		hub.Stop()
		if snap := hub.Snapshot(); snap.Evictions != 1 || snap.RefusedFull != 1 {
			t.Fatalf("snapshot evictions=%d refusedFull=%d, want 1 and 1", snap.Evictions, snap.RefusedFull)
		}
		return trace, checkpoint.AppendSessionRecord(nil, rec)
	}

	series, events := serveSeries(t), obs.DefaultEvents().Recorded()
	bare, bareRec := run(true)
	if got := serveSeries(t); !reflect.DeepEqual(got, series) {
		t.Fatalf("disabled hub moved serving series:\n got %q\nwant %q", got, series)
	}
	if got := obs.DefaultEvents().Recorded(); got != events {
		t.Fatalf("disabled hub recorded %d events", got-events)
	}

	instrumented, instrumentedRec := run(false)
	if reflect.DeepEqual(serveSeries(t), series) || obs.DefaultEvents().Recorded() == events {
		t.Fatal("telemetry-on hub recorded nothing: the comparison above would be vacuous")
	}
	if !reflect.DeepEqual(bare, instrumented) {
		t.Fatalf("disabled hub decoded differently:\n got %+v\nwant %+v", bare, instrumented)
	}
	if !bytes.Equal(bareRec, instrumentedRec) {
		t.Fatal("disabled hub extracted a different session record")
	}
}

// TestTickEndIsOneClockRead: a tick's end is one clock read, so each
// latency the shard's ring records (the p99 behind /healthz and admission
// backpressure) is exactly what cogarm_serve_tick_seconds observes for that
// tick. The hub has one shard and no other hub ticks, so the histogram's sum
// moves by that shard's ticks alone.
func TestTickEndIsOneClockRead(t *testing.T) {
	reg, p := testFleet(t)
	hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: 2, TickHz: 15, LatencyWindow: 64}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	for seed := uint64(1); seed <= 2; seed++ {
		src := &scriptSource{samples: scriptedEEG(0, seed, 600)}
		if _, err := hub.Admit(SessionConfig{ModelKey: "rf", Source: src, Norm: p.NormFor(0)}); err != nil {
			t.Fatal(err)
		}
	}
	const ticks = 30
	var observed [ticks]float64 // the histogram sum's rise in each tick
	for i := range observed {
		before := hub.tel.tick.Sum()
		hub.TickAll()
		observed[i] = hub.tel.tick.Sum() - before
	}
	m := &hub.shards[0].met
	m.mu.Lock()
	ring := append([]float64(nil), m.lat[:m.latIdx]...)
	m.mu.Unlock()
	if len(ring) != ticks {
		t.Fatalf("latency ring holds %d ticks, want %d", len(ring), ticks)
	}
	var sumRing, sumObserved float64
	for i, lat := range ring {
		if d := observed[i] - lat; d > 1e-12 || d < -1e-12 {
			t.Errorf("tick %d: histogram observed %.9fs, latency ring holds %.9fs", i, observed[i], lat)
		}
		sumRing += lat
		sumObserved += observed[i]
	}
	if d := sumObserved - sumRing; d > 1e-12 || d < -1e-12 {
		t.Fatalf("cogarm_serve_tick_seconds rose by %.12fs over %d ticks, the latency ring sums to %.12fs", sumObserved, ticks, sumRing)
	}
}
