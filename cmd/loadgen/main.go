// loadgen benchmarks the CognitiveArm serving hub with M synthetic
// subjects. It answers the capacity question directly: how many concurrent
// closed-loop sessions does one machine sustain, and at what per-inference
// cost?
//
// Three modes:
//
//   - -mode inproc (default): builds its own hub, trains the shared decoder
//     once, admits -sessions board-backed synthetic subjects, and drives
//     shards caller-paced (TickAll) as fast as they will go for -duration —
//     maximum-throughput numbers. With -paced it instead runs the real
//     15 Hz shard loops, which measures headroom rather than ceiling.
//
//   - -mode udp: streams -sessions synthetic subjects at -rate Hz to a
//     running cogarmd (-targets is the comma-separated inlet address list
//     cogarmd printed at startup with -listen).
//
//   - -mode cluster: builds -nodes in-process cluster nodes joined over real
//     loopback TCP, routes -sessions subjects across them by consistent
//     hash, and drives every node's hub flat out for -duration — the
//     multi-node scaling answer. Compare aggregate inferences/s at -nodes 1
//     and -nodes 2 on an otherwise idle machine to see the near-linear
//     scale-out (the model trains once and is shared, so only serving work
//     multiplies). With -kill it becomes a chaos drill: the HA stack runs
//     (warm-standby replication, heartbeats, failure detection), one node is
//     killed mid-drive without drain, and the report shows how long the
//     survivors took to reap it and promote its sessions.
//
// The report includes fleet and per-shard snapshots: sessions, ticks,
// inference throughput, realised batch size, and p50/p99 tick latency.
//
// Example:
//
//	loadgen -sessions 100 -shards 4 -duration 10s
//	loadgen -mode udp -targets 127.0.0.1:40001,127.0.0.1:40002 -duration 30s
//	loadgen -mode cluster -nodes 2 -sessions 200 -duration 10s
//	loadgen -mode cluster -nodes 3 -sessions 90 -duration 20s -kill 5s
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"cognitivearm/internal/board"
	"cognitivearm/internal/cluster"
	"cognitivearm/internal/core"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/obs"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/stream"
)

func main() {
	var (
		mode          = flag.String("mode", "inproc", "inproc | udp | cluster")
		sessions      = flag.Int("sessions", 100, "concurrent synthetic subjects")
		shards        = flag.Int("shards", 4, "worker shards (inproc)")
		tickHz        = flag.Float64("tick", 15, "session classification rate (Hz)")
		duration      = flag.Duration("duration", 10*time.Second, "drive time")
		paced         = flag.Bool("paced", false, "inproc: run real paced shard loops instead of max-rate TickAll")
		targets       = flag.String("targets", "", "udp: comma-separated inlet addresses from cogarmd -listen")
		rate          = flag.Float64("rate", eeg.SampleRate, "udp: per-subject sample rate (Hz)")
		nodes         = flag.Int("nodes", 2, "cluster: in-process nodes joined over loopback TCP")
		kill          = flag.Duration("kill", 0, "cluster: kill the last node this long into the drive and measure automatic failover (needs -nodes >= 2)")
		seed          = flag.Uint64("seed", 1, "simulation seed")
		admin         = flag.String("admin", "", "host the admin plane in-process at this address (inproc/cluster; \":0\" picks a port)")
		scrape        = flag.Bool("scrape", false, "poll own /metrics at 1 Hz during the run and report the tick-stage breakdown (implies -admin 127.0.0.1:0)")
		kernelThreads = flag.Int("kernel-threads", 0, "workers for parallel batched GEMMs; 0 = derive from the cores the shards leave idle, 1 = serial kernels")
		quantize      = flag.Bool("quantize", false, "serve int8/int16 quantized model twins where the calibration agreement gate passes")
	)
	flag.Parse()
	log.SetFlags(log.Ltime)

	adminAddr := *admin
	if *scrape && adminAddr == "" {
		adminAddr = "127.0.0.1:0"
	}
	switch *mode {
	case "inproc":
		runInproc(*sessions, *shards, *kernelThreads, *quantize, *tickHz, *duration, *paced, *seed, adminAddr, *scrape)
	case "udp":
		if adminAddr != "" {
			log.Printf("loadgen: -admin/-scrape apply to inproc and cluster modes (udp mode has no local hub; scrape cogarmd's -admin instead)")
		}
		runUDP(strings.Split(*targets, ","), *sessions, *rate, *duration, *seed)
	case "cluster":
		runCluster(*sessions, *nodes, *shards, *kernelThreads, *tickHz, *duration, *kill, *seed, adminAddr, *scrape)
	default:
		log.Fatalf("loadgen: unknown mode %q", *mode)
	}
}

// startAdmin hosts the admin plane in-process (empty addr = disabled) and,
// when scrape is set, starts the 1 Hz self-scraper against it. The returned
// stop func tears both down (taking the scraper's final sample); the
// returned scraper is nil when scraping is off.
func startAdmin(adminAddr string, scrape bool, hub *serve.Hub, clusterStatus func() any) (*scraper, func()) {
	if adminAddr == "" {
		return nil, func() {}
	}
	srv, bound, err := obs.StartAdmin(adminAddr, obs.AdminOptions{
		Health: hub.Health,
		Status: func() any { return hub.Status("", clusterStatus) },
	})
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	log.Printf("loadgen: admin plane on http://%s", bound)
	var sc *scraper
	if scrape {
		sc = startScraper(fmt.Sprintf("http://%s/metrics", bound), time.Second)
	}
	return sc, func() {
		if sc != nil {
			sc.close()
		}
		srv.Close()
	}
}

func runInproc(sessions, shards, kernelThreads int, quantize bool, tickHz float64, duration time.Duration, paced bool, seed uint64, adminAddr string, scrape bool) {
	log.Printf("loadgen: training shared decoder")
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	pipeline, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	reg := serve.NewRegistry()
	if quantize {
		// Enable before the decoder resolves: quantization applies at build
		// time, never retroactively.
		reg.EnableQuantization(serve.QuantPolicy{})
	}
	spec := models.Spec{Family: models.FamilyRF, WindowSize: cfg.WindowSize, Trees: 50, MaxDepth: 12}
	if _, _, err := reg.GetOrBuild("rf-shared", func() (models.Classifier, int64, error) {
		c, _, err := pipeline.TrainModel(spec)
		return c, models.OpsPerInference(spec), err
	}); err != nil {
		log.Fatal(err)
	}

	perShard := (sessions + shards - 1) / shards
	hub, err := serve.NewHub(serve.Config{
		Shards:              shards,
		MaxSessionsPerShard: perShard,
		TickHz:              tickHz,
		LatencyWindow:       2048,
		KernelThreads:       kernelThreads,
		Quantize:            quantize,
	}, reg)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < sessions; i++ {
		subject := i % len(cfg.SubjectIDs)
		b := board.NewSyntheticCyton(eeg.NewSubject(subject), seed+uint64(i)*13+7, false)
		if err := b.Start(); err != nil {
			log.Fatal(err)
		}
		if _, err := hub.Admit(serve.SessionConfig{
			ModelKey: "rf-shared",
			Source:   b,
			Norm:     pipeline.NormFor(subject),
		}); err != nil {
			log.Fatalf("loadgen: admit session %d: %v", i, err)
		}
	}
	log.Printf("loadgen: %d sessions on %d shards, driving for %v (paced=%v)", sessions, shards, duration, paced)
	sc, stopAdmin := startAdmin(adminAddr, scrape, hub, nil)

	start := time.Now()
	if paced {
		hub.Start()
		time.Sleep(duration)
	} else {
		deadline := start.Add(duration)
		for time.Now().Before(deadline) {
			hub.TickAll()
		}
	}
	elapsed := time.Since(start)
	// Snapshot before Stop so the report shows the live fleet, not the
	// drained one.
	snap := hub.Snapshot()
	stopAdmin() // final scrape while the counters still cover the run
	hub.Stop()

	fmt.Printf("\n%s\n", snap)
	for _, s := range snap.Shards {
		fmt.Printf("%s\n", s)
	}
	secs := elapsed.Seconds()
	fmt.Printf("\nwall %.2fs  ticks/s %.0f  inferences/s %.0f  samples/s %.0f\n",
		secs, float64(snap.Ticks)/secs, float64(snap.Inferences)/secs, float64(snap.SamplesIn)/secs)
	if snap.Inferences > 0 {
		fmt.Printf("per-inference wall %.2fµs (fleet-wide, incl. ingest+filtering)\n",
			1e6*secs/float64(snap.Inferences))
	}
	if sc != nil {
		sc.report()
	}
}

// runCluster measures multi-node scale-out: -nodes cluster nodes in one
// process (joined over real loopback TCP, exactly the cogarmd -cluster
// shape), sessions routed across them by consistent hash, every hub driven
// caller-paced as fast as it will go. Each node runs its own shards, its own
// registry holding the shared train-once decoder, and its own tick loops —
// the only cross-node traffic is membership and (on join) migration, so
// aggregate throughput scales with nodes until the machine runs out of
// cores.
func runCluster(sessions, nodes, shards, kernelThreads int, tickHz float64, duration, kill time.Duration, seed uint64, adminAddr string, scrape bool) {
	if nodes < 1 {
		log.Fatal("loadgen: -nodes must be >= 1")
	}
	if kill > 0 && nodes < 2 {
		log.Fatal("loadgen: -kill needs -nodes >= 2 (someone has to survive)")
	}
	if kill >= duration {
		kill = 0
	}
	log.Printf("loadgen: training shared decoder (once, for all %d nodes)", nodes)
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	pipeline, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	spec := models.Spec{Family: models.FamilyRF, WindowSize: cfg.WindowSize, Trees: 50, MaxDepth: 12}
	clf, _, err := pipeline.TrainModel(spec)
	if err != nil {
		log.Fatal(err)
	}

	rebind := func(rec serve.RestoredSession) (serve.Source, error) {
		b := board.NewSyntheticCyton(eeg.NewSubject(0), seed+uint64(rec.ID)*13+7, false)
		if err := b.Start(); err != nil {
			return nil, err
		}
		return b, nil
	}
	perShard := (sessions + shards - 1) / shards // full capacity per node: hash skew must never refuse
	var hubs []*serve.Hub
	byID := map[string]*cluster.Node{}
	var ns []*cluster.Node
	for i := 0; i < nodes; i++ {
		reg := serve.NewRegistry()
		reg.GetOrBuild("rf-shared", func() (models.Classifier, int64, error) {
			return clf, models.OpsPerInference(spec), nil
		})
		hub, err := serve.NewHub(serve.Config{
			Shards:              shards,
			MaxSessionsPerShard: perShard,
			TickHz:              tickHz,
			LatencyWindow:       2048,
			KernelThreads:       kernelThreads,
		}, reg)
		if err != nil {
			log.Fatal(err)
		}
		ncfg := cluster.Config{ID: fmt.Sprintf("node-%d", i), Rebind: rebind}
		if kill > 0 {
			// Chaos mode runs the full HA stack: warm-standby replication plus
			// heartbeat-driven failure detection, exactly the cogarmd shape.
			ncfg.Replicas = 1
			ncfg.ReplicateEvery = cluster.DefaultReplicateEvery
			ncfg.HeartbeatEvery = cluster.DefaultHeartbeatEvery
		}
		node, err := cluster.NewNode(ncfg, hub)
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		if i > 0 {
			if err := node.Join(ns[0].Addr()); err != nil {
				log.Fatal(err)
			}
		}
		hubs = append(hubs, hub)
		ns = append(ns, node)
		byID[node.ID()] = node
	}

	for i := 0; i < sessions; i++ {
		subject := i % len(cfg.SubjectIDs)
		tag := fmt.Sprintf("subject:%d", i)
		target := ns[0]
		if owner, _, local := ns[0].Owner(tag); !local {
			target = byID[owner]
		}
		b := board.NewSyntheticCyton(eeg.NewSubject(subject), seed+uint64(i)*13+7, false)
		if err := b.Start(); err != nil {
			log.Fatal(err)
		}
		if _, err := target.Admit(serve.SessionConfig{
			ModelKey: "rf-shared",
			Source:   b,
			Norm:     pipeline.NormFor(subject),
			Tag:      tag,
		}); err != nil {
			log.Fatalf("loadgen: admit %s on %s: %v", tag, target.ID(), err)
		}
	}
	for _, n := range ns {
		log.Printf("loadgen: %s", n.Snapshot())
	}
	log.Printf("loadgen: %d sessions across %d nodes, driving for %v", sessions, nodes, duration)
	// The registry and event ring are process-global, so one admin plane
	// covers all in-process nodes; health and cluster status report node 0.
	sc, stopAdmin := startAdmin(adminAddr, scrape, hubs[0], ns[0].Status)

	start := time.Now()
	deadline := start.Add(duration)
	vi := len(hubs) - 1 // chaos victim: the last-joined node
	killCh := make(chan struct{})
	victimDone := make(chan struct{})
	var wg sync.WaitGroup
	for i, hub := range hubs {
		wg.Add(1)
		go func(i int, hub *serve.Hub) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if kill > 0 && i == vi {
					select {
					case <-killCh:
						close(victimDone)
						return
					default:
					}
				}
				hub.TickAll()
			}
			if kill > 0 && i == vi {
				close(victimDone)
			}
		}(i, hub)
	}
	killed := false
	if kill > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(kill)
			lost := hubs[vi].Sessions()
			survivors := 0
			for i, h := range hubs {
				if i != vi {
					survivors += h.Sessions()
				}
			}
			log.Printf("loadgen: chaos: killing %s (%d sessions) without drain", ns[vi].ID(), lost)
			close(killCh)
			<-victimDone
			t0 := time.Now()
			ns[vi].Close()
			hubs[vi].Stop()
			killed = true
			// The survivors' detectors now have to notice the silence, reap
			// the member, and promote its warm replicas — unassisted. Poll the
			// surviving hubs until the fleet is whole again.
			for time.Now().Before(deadline) {
				cur := 0
				for i, h := range hubs {
					if i != vi {
						cur += h.Sessions()
					}
				}
				if cur >= survivors+lost {
					log.Printf("loadgen: chaos: failover complete, %d sessions promoted after %v", lost, time.Since(t0).Round(time.Millisecond))
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			log.Printf("loadgen: chaos: failover incomplete at deadline (raise -duration or lower -suspect)")
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	stopAdmin() // final scrape while the counters still cover the run

	var totalInf, totalTicks, totalSamples uint64
	for i, hub := range hubs {
		snap := hub.Snapshot()
		if !(killed && i == vi) {
			hub.Stop()
		}
		fmt.Printf("\nnode-%d %s\n", i, snap)
		totalInf += snap.Inferences
		totalTicks += snap.Ticks
		totalSamples += snap.SamplesIn
	}
	secs := elapsed.Seconds()
	fmt.Printf("\naggregate: wall %.2fs  ticks/s %.0f  inferences/s %.0f  samples/s %.0f\n",
		secs, float64(totalTicks)/secs, float64(totalInf)/secs, float64(totalSamples)/secs)
	if totalInf > 0 {
		fmt.Printf("per-inference wall %.2fµs (aggregate across %d nodes)\n", 1e6*secs/float64(totalInf), nodes)
	}
	if sc != nil {
		sc.report()
	}
}

// runUDP streams synthetic EEG to a running cogarmd. Subjects are assigned
// to targets round-robin, so more sessions than targets multiplexes several
// subjects onto one inlet (a stress shape), while sessions == targets is the
// clean one-subject-per-inlet drive.
func runUDP(targets []string, sessions int, rateHz float64, duration time.Duration, seed uint64) {
	var addrs []string
	for _, t := range targets {
		if t = strings.TrimSpace(t); t != "" {
			addrs = append(addrs, t)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("loadgen: -mode udp needs -targets (see cogarmd -listen output)")
	}
	if sessions < len(addrs) {
		sessions = len(addrs)
	}
	clock := stream.NewVirtualClock(0, 0)
	var wg sync.WaitGroup
	var totalSent uint64
	var mu sync.Mutex
	for i := 0; i < sessions; i++ {
		addr := addrs[i%len(addrs)]
		outlet, err := stream.NewUDPOutlet(addr, clock, stream.LinkConfig{Seed: seed + uint64(i)})
		if err != nil {
			log.Fatalf("loadgen: dial %s: %v", addr, err)
		}
		wg.Add(1)
		go func(i int, outlet *stream.UDPOutlet) {
			defer wg.Done()
			defer func() {
				outlet.Close()
				mu.Lock()
				totalSent += outlet.BytesSent
				mu.Unlock()
			}()
			gen := eeg.NewGenerator(eeg.NewSubject(i%5), seed+uint64(i)*31)
			const chunk = 5
			interval := time.Duration(float64(chunk) / rateHz * float64(time.Second))
			tick := time.NewTicker(interval)
			defer tick.Stop()
			deadline := time.Now().Add(duration)
			for time.Now().Before(deadline) {
				<-tick.C
				for j := 0; j < chunk; j++ {
					raw := gen.Next(eeg.Action((i + j) % 3))
					outlet.Push(raw[:])
				}
			}
		}(i, outlet)
	}
	log.Printf("loadgen: streaming %d subjects to %d inlets at %.0f Hz for %v", sessions, len(addrs), rateHz, duration)
	wg.Wait()
	log.Printf("loadgen: done, %d payload bytes sent", totalSent)
}
