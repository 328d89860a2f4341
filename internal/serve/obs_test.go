package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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
