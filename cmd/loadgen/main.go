// loadgen drives synthetic closed-loop EEG sessions through the CognitiveArm
// serving stack, to drill what operators rely on under load: ingest and idle
// eviction on a running daemon, and automatic failover in a cluster. It is a
// load driver, not a benchmark — most of what it could time is its own
// sample generator; `go run ./bench` is the measurement.
//
// Two modes:
//
//   - -mode udp: streams -sessions synthetic subjects at -rate Hz to a
//     running cogarmd (-targets is the comma-separated inlet address list
//     cogarmd printed at startup with -listen).
//
//   - -mode cluster (default): builds -nodes in-process cluster nodes joined
//     over real loopback TCP, routes -sessions subjects across them by
//     consistent hash, and drives every node's hub flat out for -duration.
//     With -kill it becomes a chaos drill: the HA stack runs (warm-standby
//     replication, heartbeats, failure detection), one node is killed
//     mid-drive without drain, and the report shows how long the survivors
//     took to reap it and promote its sessions.
//
// Every flag has one row in OPERATIONS.md's loadgen table;
// TestFlagTableMatches keeps the two in step.
//
// Example:
//
//	loadgen -mode udp -targets 127.0.0.1:40001,127.0.0.1:40002 -duration 30s
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
	"cognitivearm/internal/serve"
	"cognitivearm/internal/stream"
)

var (
	mode     = flag.String("mode", "cluster", "udp | cluster")
	sessions = flag.Int("sessions", 100, "concurrent synthetic subjects")
	shards   = flag.Int("shards", 4, "cluster: worker shards per node")
	tickHz   = flag.Float64("tick", 15, "session classification rate (Hz)")
	duration = flag.Duration("duration", 10*time.Second, "drive time")
	targets  = flag.String("targets", "", "udp: comma-separated inlet addresses from cogarmd -listen")
	rate     = flag.Float64("rate", eeg.SampleRate, "udp: per-subject sample rate (Hz)")
	nodes    = flag.Int("nodes", 2, "cluster: in-process nodes joined over loopback TCP")
	kill     = flag.Duration("kill", 0, "cluster: kill the last node this long into the drive and measure automatic failover (needs -nodes >= 2)")
	seed     = flag.Uint64("seed", 1, "simulation seed")
)

func main() {
	flag.Parse()
	log.SetFlags(log.Ltime)

	switch *mode {
	case "udp":
		runUDP(strings.Split(*targets, ","), *sessions, *rate, *duration, *seed)
	case "cluster":
		runCluster(*sessions, *nodes, *shards, *tickHz, *duration, *kill, *seed)
	default:
		log.Fatalf("loadgen: unknown mode %q (udp | cluster)", *mode)
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
func runCluster(sessions, nodes, shards int, tickHz float64, duration, kill time.Duration, seed uint64) {
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
