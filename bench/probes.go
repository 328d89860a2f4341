package main

import (
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"cognitivearm/internal/control"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/stream"
	"cognitivearm/internal/tensor"
	"cognitivearm/internal/wal"
)

// Stand-alone probes: one public function of one layer, called at the shape
// the serving path calls it with, outside any fleet. They say what a layer
// costs alone; the traced pass says what it costs in place.

// probeBatch is half the 100-session fleet: what one of two shards classifies
// per tick.
const probeBatch = 50

// measure calls batch (ops operations each) until budget is spent — at least
// three times — and returns the median nanoseconds per operation.
func measure(budget time.Duration, ops int, batch func()) (nsPerOp float64, batches int) {
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		batch()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(per), len(per)
}

// probes runs the probes of the layers this workload leans on, sharing budget
// between them.
func (r *rig) probes(res *result, budget time.Duration) error {
	var list []func(*result, time.Duration) error
	switch {
	case r.w.paced:
		list = []func(*result, time.Duration) error{r.probeUDPIngest, r.probeDecode, r.probeRing}
	case r.w.durable:
		list = []func(*result, time.Duration) error{r.probeCaptureState, r.probeWal}
	case r.w.model == "cnn":
		list = []func(*result, time.Duration) error{r.probeModel, r.probeGEMM}
	default:
		list = []func(*result, time.Duration) error{r.probeWindowPush, r.probeModel, r.probeTelemetry}
	}
	for _, p := range list {
		if err := p(res, budget/time.Duration(len(list))); err != nil {
			return err
		}
	}
	return nil
}

// probeWindows builds n full, filtered, normalised windows from the traces.
func (r *rig) probeWindows(n int) ([]*tensor.Matrix, error) {
	size := r.m.clf.WindowSize()
	out := make([]*tensor.Matrix, n)
	for i := range out {
		win, err := control.NewWindower(eeg.SampleRate, eeg.NumChannels, size, r.m.norm)
		if err != nil {
			return nil, err
		}
		trace := r.traces[i%len(r.traces)]
		for j := 0; j < size+7*i; j++ {
			win.Push(trace[j%len(trace)].Values)
		}
		out[i] = win.WindowInto(nil)
	}
	return out, nil
}

// probeWindowPush times control.Windower.Push: 16 channels of causal
// filtering, normalisation and the rolling-window shift, per sample.
func (r *rig) probeWindowPush(res *result, budget time.Duration) error {
	win, err := control.NewWindower(eeg.SampleRate, eeg.NumChannels, r.m.clf.WindowSize(), r.m.norm)
	if err != nil {
		return err
	}
	trace := r.traces[0]
	ns, n := measure(budget, len(trace), func() {
		for i := range trace {
			win.Push(trace[i].Values)
		}
	})
	res.set("control.window_push_ns_per_sample", ns, n*len(trace))
	return nil
}

// probeModel times the workload's model and its quantized twin through
// models.PredictBatchWS at batch 50 with a warm workspace and serial kernels,
// so the pair differs in arithmetic only. The twin is built with the
// agreement gate wide open: this measures cost, not accuracy.
func (r *rig) probeModel(res *result, budget time.Duration) error {
	wins, err := r.probeWindows(probeBatch)
	if err != nil {
		return err
	}
	exact, quant := "rf.predict_us_per_window_b50", "rf.qforest_us_per_window_b50"
	if r.w.model == "cnn" {
		exact, quant = "nn.cnn_us_per_window_b50", "nn.cnn_q8_us_per_window_b50"
	}
	twin, err := models.Quantize(r.m.clf, models.QuantOptions{MinAgreement: 1e-9, Calibration: wins})
	if err != nil {
		return fmt.Errorf("bench: quantize %s: %w", r.m.key, err)
	}
	ws := tensor.NewWorkspace()
	var labels []int
	for _, c := range []struct {
		name string
		clf  models.Classifier
	}{{exact, r.m.clf}, {quant, twin}} {
		ns, n := measure(budget/2, probeBatch, func() {
			ws.Reset()
			labels = models.PredictBatchWS(c.clf, ws, wins, labels[:0])
		})
		res.set(c.name, ns/1e3, n*probeBatch)
	}
	return nil
}

// probeGEMM times the one product that dominates the cnn tick — the im2col
// matrix of 50 windows (50·48 rows × 5·16) against the 32 filters, bias and
// ReLU fused — on the serial kernel, on the pool the hub would size, and
// through the int8 kernel. Operation counts are computed from the shapes.
func (r *rig) probeGEMM(res *result, budget time.Duration) error {
	spec := cnnSpec(r.m.clf.WindowSize())
	outT := (spec.WindowSize-spec.Kernel)/spec.Stride + 1
	m, k, n := probeBatch*outT, spec.Kernel*eeg.NumChannels, spec.Filters
	rng := tensor.NewRNG(r.p.seed)
	a, b, dst := tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	ep := tensor.Epilogue{Bias: make([]float64, n), ReLU: true}
	flop := float64(2 * m * k * n)

	ws := tensor.NewWorkspace()
	gemm := func() { ws.Reset(); tensor.GEMM(ws, dst, a, b, ep) }
	ns, batches := measure(budget/3, 1, gemm)
	res.set("tensor.gemm_serial_gflops", flop/ns, batches)

	threads := runtime.GOMAXPROCS(0)
	if threads > 4 { // serve.MaxAutoKernelThreads
		threads = 4
	}
	pool := tensor.NewPool(threads)
	ws.SetPool(pool)
	ns, batches = measure(budget/3, 1, gemm)
	ws.SetPool(nil)
	pool.Close()
	res.set("tensor.gemm_pool_gflops", flop/ns, batches)

	q := tensor.QuantizeWeights(b)
	ns, batches = measure(budget/3, 1, func() { ws.Reset(); tensor.MatMulQ(ws, dst, a, q, ep) })
	res.set("tensor.matmulq_gops", flop/ns, batches)
	return nil
}

// probeTelemetry is the telemetry A/B: two fresh untraced fleets, one with
// the hub's instrumentation off, ticked in interleaved chunks whose order
// flips each round so drift lands on both.
func (r *rig) probeTelemetry(res *result, budget time.Duration) error {
	const chunk = 150
	var fleets [2]*replayFleet // [0] telemetry on, [1] bare
	for i := range fleets {
		reg, err := newRegistry(r.m, nil, false)
		if err != nil {
			return err
		}
		hub, err := newHub(reg, i == 1)
		if err != nil {
			return err
		}
		defer hub.Stop()
		if fleets[i], err = newReplayFleet(hub, r.m, r.traces, nil); err != nil {
			return err
		}
		for t := 0; t < chunk; t++ {
			hub.TickAll()
		}
	}
	var per [2][]float64
	deadline := time.Now().Add(budget)
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		for j := 0; j < 2; j++ {
			i := (round + j) % 2
			t0 := time.Now()
			for t := 0; t < chunk; t++ {
				fleets[i].hub.TickAll()
			}
			per[i] = append(per[i], float64(time.Since(t0).Nanoseconds())/chunk)
		}
	}
	res.set("obs.telemetry_overhead_pct", 100*(median(per[0])/median(per[1])-1), len(per[0])+len(per[1]))
	return nil
}

// probeUDPIngest blasts one inlet with bursts of datagrams and waits for each
// burst to land: socket read, validation, decode, arrival stamp and ring
// push, per datagram, with the sender's write alongside.
func (r *rig) probeUDPIngest(res *result, budget time.Duration) error {
	const burst = 64 // well inside one socket buffer, so the kernel drops none
	inlet, err := stream.NewUDPInlet(stream.NewVirtualClock(0, 0), inletRing)
	if err != nil {
		return err
	}
	defer inlet.Close()
	addr, err := net.ResolveUDPAddr("udp", inlet.Addr())
	if err != nil {
		return err
	}
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	frame, _ := r.traces[0][0].MarshalBinary() // the error is always nil
	var sent uint64
	var buf []stream.Sample
	var stuck bool
	ns, n := measure(budget, burst, func() {
		for i := 0; i < burst; i++ {
			if _, err := conn.Write(frame); err == nil {
				sent += uint64(len(frame))
			}
		}
		for wait := time.Now(); inlet.BytesReceived() < sent; {
			if time.Since(wait) > time.Second {
				stuck = true
				return
			}
			runtime.Gosched()
		}
		buf = inlet.Ring.PopNInto(buf[:0], 0)
	})
	if stuck {
		return fmt.Errorf("bench: udp ingest probe: inlet received %d of %d bytes", inlet.BytesReceived(), sent)
	}
	res.set("stream.udp_ingest_us_per_datagram", ns/1e3, n*burst)
	return nil
}

// probeDecode times Sample.UnmarshalBinary into a fresh Sample, as the inlet
// reader does per datagram, and counts what it allocates.
func (r *rig) probeDecode(res *result, budget time.Duration) error {
	const batch = 1000
	frame, _ := r.traces[0][0].MarshalBinary() // the error is always nil
	var m0, m1 runtime.MemStats
	var failed error
	runtime.ReadMemStats(&m0)
	ns, n := measure(budget, batch, func() {
		for i := 0; i < batch; i++ {
			var s stream.Sample
			if err := s.UnmarshalBinary(frame); err != nil {
				failed = err
			}
		}
	})
	runtime.ReadMemStats(&m1)
	if failed != nil {
		return failed
	}
	res.set("stream.decode_ns_per_sample", ns, n*batch)
	res.set("stream.decode_allocs_per_sample", float64(m1.Mallocs-m0.Mallocs)/float64(n*batch), n*batch)
	return nil
}

// probeRing times the ring at the tick's rhythm: a sample period's worth of
// pushes, then one bulk pop into a reused buffer.
func (r *rig) probeRing(res *result, budget time.Duration) error {
	const perTick, rounds = 8, 1000
	ring := stream.NewRing(inletRing)
	trace := r.traces[0]
	var buf []stream.Sample
	ns, n := measure(budget, perTick*rounds, func() {
		for i := 0; i < rounds; i++ {
			for j := 0; j < perTick; j++ {
				ring.Push(trace[(i*perTick+j)%len(trace)])
			}
			buf = ring.PopNInto(buf[:0], perTick)
		}
	})
	res.set("stream.ring_ns_per_sample", ns, n*perTick*rounds)
	return nil
}

// probeCaptureState times Hub.CaptureState on the durable fleet: the deep
// copy every flush, checkpoint and replication sweep takes under the shard
// locks, which is the longest a paced tick can be made to wait.
func (r *rig) probeCaptureState(res *result, budget time.Duration) error {
	ns, n := measure(budget/4, 1, func() { r.hub.CaptureState() })
	res.set("serve.capture_state_ms", ns/1e6, n)
	return nil
}

// probeWal times the log alone: 64 KiB entries appended and sealed one per
// batch without fsync, wal.Verify over what that wrote, then a few seals
// with the real fsync — a property of this disk, reported for information.
func (r *rig) probeWal(res *result, budget time.Duration) error {
	const entry = 64 << 10
	const maxBytes = 64 << 20 // bound the scratch space the probe takes
	payload := make([]byte, entry)
	rng := tensor.NewRNG(r.p.seed)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	appendSeal := func(log *wal.Log) error {
		if _, err := log.Append(wal.KindSession, payload); err != nil {
			return err
		}
		_, _, _, err := log.Seal()
		return err
	}

	dir := filepath.Join(r.dir, "walprobe")
	log, _, err := wal.Open(wal.Options{Dir: dir, NoSync: true})
	if err != nil {
		return err
	}
	var per []float64
	var failed error
	for deadline := time.Now().Add(budget / 2); failed == nil && len(per)*entry < maxBytes &&
		(len(per) < 3 || time.Now().Before(deadline)); {
		t0 := time.Now()
		failed = appendSeal(log)
		per = append(per, float64(time.Since(t0).Nanoseconds()))
	}
	if err := log.Close(); failed == nil {
		failed = err
	}
	if failed != nil {
		return fmt.Errorf("bench: wal probe: %w", failed)
	}
	res.set("wal.append_seal_mb_per_s", entry/median(per)*1e9/1e6, len(per))

	t0 := time.Now()
	if _, err := wal.Verify(dir); err != nil {
		return fmt.Errorf("bench: wal probe: verify: %w", err)
	}
	res.set("wal.verify_mb_per_s", float64(len(per)*entry)/time.Since(t0).Seconds()/1e6, 1)

	synced, _, err := wal.Open(wal.Options{Dir: filepath.Join(r.dir, "walprobe-fsync")})
	if err != nil {
		return err
	}
	var syncMs []float64
	for deadline := time.Now().Add(budget / 4); failed == nil && len(syncMs) < 32 &&
		(len(syncMs) < 3 || time.Now().Before(deadline)); {
		t0 := time.Now()
		failed = appendSeal(synced)
		syncMs = append(syncMs, ms(time.Since(t0)))
	}
	if err := synced.Close(); failed == nil {
		failed = err
	}
	if failed != nil {
		return fmt.Errorf("bench: wal fsync probe: %w", failed)
	}
	res.set("wal.seal_fsync_ms_p50", median(syncMs), len(syncMs))
	return nil
}
