// cogarmd is the CognitiveArm serving daemon: one serve.Hub multiplexing
// many concurrent closed-loop EEG sessions over a shared, train-once
// decoder, fed by internal/stream network inlets.
//
// On startup it trains the shared Random-Forest decoder once (the registry
// guarantees exactly one build no matter how many sessions arrive), then
// admits two kinds of sessions:
//
//   - Demo subjects (-subjects N): N synthetic participants streamed
//     in-process over real loopback sockets (-transport udp|lsl), each
//     wandering between mental tasks, so a single binary demonstrates the
//     full network-fed serving path.
//
//   - External inlets (-listen N): N UDP inlets whose addresses are printed
//     on startup; point cmd/loadgen's -mode udp -targets at them to drive
//     the daemon from another process. Sessions that go silent are evicted
//     after -idle-evict ticks.
//
// With -checkpoint-dir the daemon is durable, and that directory is its one
// durability root. It journals every fleet mutation — dirty session records,
// manifests, model payloads, audit events, prediction decisions — to a
// Merkle-sealed write-ahead log in <root>/wal, flushed every -wal-every, and
// persists the entire fleet — decoder weights, every session's signal-path
// state, shard assignment and counters — as a ckpt-* checkpoint every
// -checkpoint-every interval and on shutdown. Each checkpoint fences the log
// and truncates the segments it subsumes. A kill -9 loses at most one flush
// interval: a restarted daemon replays the sealed WAL tail over the newest
// valid checkpoint instead of retraining. Restored demo subjects get fresh
// streamers; restored inlet sessions get fresh sockets whose new addresses
// are printed. Inspect the log offline with `cogarm wal verify|dump
// <root>/wal`. See OPERATIONS.md for the full operations guide and
// ARCHITECTURE.md for the on-disk formats.
//
// With -cluster the daemon is one node of a multi-node fleet: it binds an
// inter-node endpoint (the migration endpoint peers stream session
// records to), joins the members named by -peers, and takes over the
// sessions the consistent-hash ring routes to it — live, mid-window, with
// bitwise-identical subsequent predictions. Each node replicates its dirty
// session records to -replicas ring successors every -replicate-every, and a
// phi-accrual failure detector (tuned by -heartbeat, -suspect, -phi) reaps
// members that go silent: the first live successor promotes its warm replicas
// in place, losing at most one replication interval of decoder state. With
// -drain a terminating daemon first hands its sessions off to the surviving
// members instead of taking them down with it:
//
//	cogarmd -cluster 127.0.0.1:7946 -node-id a -subjects 32
//	cogarmd -cluster 127.0.0.1:7947 -node-id b -subjects 0 -peers 127.0.0.1:7946 -drain
//
// The daemon prints a fleet snapshot (per-shard and fleet-wide p50/p99 tick
// latency, throughput, batching factor, evictions) every -report interval
// and a final one on shutdown (SIGINT/SIGTERM or -duration). Every flag has
// one row in OPERATIONS.md's cogarmd table; TestFlagTableMatches keeps the
// two in step.
//
// Example:
//
//	cogarmd -shards 4 -subjects 32 -report 5s
//	cogarmd -listen 8 -idle-evict 150   # then: loadgen -mode udp -targets ...
//	cogarmd -subjects 32 -checkpoint-dir /var/lib/cogarmd  # kill -9 safe
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/cluster"
	"cognitivearm/internal/core"
	"cognitivearm/internal/cpu"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/obs"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/stream"
	"cognitivearm/internal/tensor"
	"cognitivearm/internal/wal"
)

var (
	shards      = flag.Int("shards", 0, "worker shards (tick loops); 0 = derive from GOMAXPROCS")
	maxSessions = flag.Int("max-sessions", 256, "admission cap per shard")
	tickHz      = flag.Float64("tick", 15, "classification rate per session (Hz)")
	subjects    = flag.Int("subjects", 8, "in-process demo subjects streamed over loopback")
	listen      = flag.Int("listen", 0, "extra UDP inlets for external streamers (addresses printed)")
	transport   = flag.String("transport", "udp", "demo-subject transport: udp | lsl")
	idleEvict   = flag.Int("idle-evict", 300, "evict a session after this many silent ticks (0 = never)")
	duration    = flag.Duration("duration", 0, "run time (0 = until SIGINT)")
	report      = flag.Duration("report", 5*time.Second, "fleet snapshot interval")
	seed        = flag.Uint64("seed", 1, "simulation seed")
	ckptDir     = flag.String("checkpoint-dir", "", "durability root: ckpt-* checkpoints and the write-ahead log in <root>/wal (empty = no persistence)")
	ckptEvery   = flag.Duration("checkpoint-every", 30*time.Second, "periodic checkpoint interval (needs -checkpoint-dir)")
	walEvery    = flag.Duration("wal-every", 2*time.Second, "journal flush interval — the durability bound a kill -9 can lose (needs -checkpoint-dir)")
	adminAddr   = flag.String("admin", "", "admin-plane HTTP endpoint (/metrics /statusz /healthz /events /debug/pprof); empty = disabled")
	clusterAddr = flag.String("cluster", "", "inter-node endpoint to bind (e.g. 127.0.0.1:7946); empty = single-node")
	nodeID      = flag.String("node-id", "", "ring identity of this node (defaults to the bound cluster address)")
	peers       = flag.String("peers", "", "comma-separated cluster endpoints of existing members to join")
	drain       = flag.Bool("drain", false, "on shutdown, migrate live sessions to surviving peers before exiting")
	replicas    = flag.Int("replicas", 1, "warm-standby count: ring successors this node replicates its sessions to (0 = no HA)")
	replEvery   = flag.Duration("replicate-every", cluster.DefaultReplicateEvery, "replication interval — the staleness bound a failover can lose")
	heartbeat   = flag.Duration("heartbeat", cluster.DefaultHeartbeatEvery, "peer heartbeat interval (0 = no failure detection)")
	suspect     = flag.Duration("suspect", cluster.DefaultSuspectAfter, "silence floor before a peer may be declared dead")
	phi         = flag.Float64("phi", cluster.DefaultPhiThreshold, "suspicion threshold: silence as a multiple of a peer's mean heartbeat interval")
)

func main() {
	flag.Parse()

	log.SetFlags(log.Ltime | log.Lmicroseconds)
	stopStreaming := make(chan struct{})

	rcfg := resumeConfig{
		shards:      *shards,
		maxSessions: *maxSessions,
		tickHz:      *tickHz,
		subjects:    *subjects,
		listen:      *listen,
		transport:   *transport,
		idleEvict:   *idleEvict,
		seed:        *seed,
		ckptDir:     *ckptDir,
	}
	hub := resumeOrColdStart(rcfg, stopStreaming)

	hub.Start()
	// Read topology back from the hub: a checkpoint restore serves under the
	// manifest's shards/tick rate, not this invocation's flags.
	hcfg := hub.Config()
	log.Printf("cogarmd: serving %d sessions on %d shards at %.0f Hz, %s kernels", hub.Sessions(), hcfg.Shards, hcfg.TickHz, cpu.Kernels())

	// Journal: every mutation the fleet makes between checkpoints lands in
	// the WAL at -wal-every granularity, sealed under a Merkle root, so a
	// kill -9 loses at most one flush interval and `cogarm wal verify|dump`
	// can audit exactly what the daemon did. Checkpoints go through it too.
	var journal *serve.Journal
	if *ckptDir != "" {
		j, rec, err := serve.NewJournal(hub, wal.Options{Dir: walDirOf(*ckptDir)})
		if err != nil {
			log.Fatalf("cogarmd: wal: %v", err)
		}
		journal = j
		defer journal.Close()
		if rec.TruncatedBytes > 0 {
			log.Printf("cogarmd: WAL recovery truncated %d torn bytes (%d unsealed entries dropped) from %s",
				rec.TruncatedBytes, rec.DroppedEntries, rec.TornSegment)
		}
		log.Printf("cogarmd: journaling to %s (%d sealed entries recovered, flush every %v)",
			walDirOf(*ckptDir), rec.SealedEntries, *walEvery)
	}

	// Cluster mode: bind the inter-node endpoint (the migration endpoint
	// peers stream session records to) and join any named members. The
	// ring immediately starts routing: joining hands this node the sessions
	// it now owns, live.
	var node *cluster.Node
	if *clusterAddr != "" {
		var err error
		node, err = cluster.NewNode(cluster.Config{
			ID:             *nodeID,
			ListenAddr:     *clusterAddr,
			Logf:           log.Printf,
			Replicas:       *replicas,
			ReplicateEvery: *replEvery,
			HeartbeatEvery: *heartbeat,
			SuspectAfter:   *suspect,
			PhiThreshold:   *phi,
			Rebind: func(rec serve.RestoredSession) (serve.Source, error) {
				return rebindSource(rec, rcfg, stopStreaming)
			},
		}, hub)
		if err != nil {
			log.Fatalf("cogarmd: cluster: %v", err)
		}
		defer node.Close()
		log.Printf("cogarmd: cluster node %s on %s", node.ID(), node.Addr())
		joined := false
		for _, peer := range strings.Split(*peers, ",") {
			if peer = strings.TrimSpace(peer); peer == "" {
				continue
			}
			if err := node.Join(peer); err != nil {
				log.Printf("cogarmd: join via %s failed: %v", peer, err)
				continue
			}
			joined = true
			break // one seed suffices: Join announces to the whole fleet
		}
		if *peers != "" && !joined {
			log.Fatalf("cogarmd: could not join any of -peers %q", *peers)
		}
		log.Printf("cogarmd: %s", node.Snapshot())
	}

	// Admin plane: metrics scrape, status document, health probe, event log
	// and live profiling. Started after cluster setup so /statusz carries the
	// ring view from the first request.
	if *adminAddr != "" {
		var clusterStatus func() any
		if node != nil {
			clusterStatus = node.Status
		}
		srv, bound, err := obs.StartAdmin(*adminAddr, obs.AdminOptions{
			Health: hub.Health,
			Status: func() any {
				doc := hub.Status(*ckptDir, clusterStatus)
				if journal != nil {
					doc.Wal = journal.Status()
				}
				return doc
			},
		})
		if err != nil {
			log.Fatalf("cogarmd: %v", err)
		}
		defer srv.Close()
		log.Printf("cogarmd: admin plane on http://%s (/metrics /statusz /healthz /events /debug/pprof)", bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	var timeout <-chan time.Time
	if *duration > 0 {
		timeout = time.After(*duration)
	}
	tick := time.NewTicker(*report)
	defer tick.Stop()
	var ckptTick <-chan time.Time
	if *ckptDir != "" && *ckptEvery > 0 {
		t := time.NewTicker(*ckptEvery)
		defer t.Stop()
		ckptTick = t.C
	}
	var walTick <-chan time.Time
	if journal != nil && *walEvery > 0 {
		t := time.NewTicker(*walEvery)
		defer t.Stop()
		walTick = t.C
	}
loop:
	for {
		select {
		case <-tick.C:
			log.Printf("%s", hub.Snapshot())
			if node != nil {
				log.Printf("%s", node.Snapshot())
			}
		case <-walTick:
			if _, _, err := journal.Flush(); err != nil {
				log.Printf("cogarmd: WAL flush failed: %v", err)
			}
		case <-ckptTick:
			saveCheckpoint(journal, *ckptDir)
		case <-sig:
			log.Printf("cogarmd: signal received, draining")
			break loop
		case <-timeout:
			break loop
		}
	}
	// Hand live sessions to the surviving members before anything stops:
	// the fleet keeps ticking until each session is captured, so subscribers
	// see a migration, not an outage.
	if node != nil && *drain {
		if err := node.Drain(); err != nil {
			log.Printf("cogarmd: drain failed: %v", err)
		}
	}
	// Final checkpoint while the fleet is still live, so a clean shutdown
	// resumes exactly where it stopped.
	if journal != nil {
		saveCheckpoint(journal, *ckptDir)
	}
	close(stopStreaming)
	// Snapshot before Stop so the final report shows the live fleet.
	final := hub.Snapshot()
	hub.Stop()
	log.Printf("final %s", final)
	for _, s := range final.Shards {
		log.Printf("final %s", s)
	}
}

// walDirOf is where the write-ahead log lives under a durability root,
// beside the ckpt-* checkpoints.
func walDirOf(root string) string { return filepath.Join(root, "wal") }

// saveCheckpoint persists the fleet through the journal, so the manifest
// carries the WAL fence and the log is truncated behind the new snapshot, and
// logs the outcome; a failed checkpoint is an operational warning, never
// fatal to serving.
func saveCheckpoint(j *serve.Journal, dir string) {
	start := time.Now()
	path, err := j.Checkpoint(dir)
	if err != nil {
		log.Printf("cogarmd: checkpoint failed: %v", err)
		return
	}
	log.Printf("cogarmd: checkpointed fleet to %s in %v", path, time.Since(start).Round(time.Millisecond))
}

type resumeConfig struct {
	shards, maxSessions int
	tickHz              float64
	subjects, listen    int
	transport           string
	idleEvict           int
	seed                uint64
	ckptDir             string
}

// resumeOrColdStart restores the fleet from the newest valid checkpoint plus
// every sealed WAL entry past its fence when the durability root holds
// either, and otherwise trains the shared decoder and admits the configured
// sessions from scratch.
func resumeOrColdStart(cfg resumeConfig, stopStreaming <-chan struct{}) *serve.Hub {
	if cfg.ckptDir == "" {
		return coldStart(cfg, stopStreaming)
	}
	start := time.Now()
	hub, dir, applied, err := serve.RestoreHubWal(cfg.ckptDir, walDirOf(cfg.ckptDir), func(rec serve.RestoredSession) (serve.Source, error) {
		return rebindSource(rec, cfg, stopStreaming)
	})
	took := time.Since(start)
	switch {
	case err == nil:
		if dir == "" {
			dir = "WAL only"
		}
		log.Printf("cogarmd: resumed %d sessions from %s + %d WAL entries (no retraining) in %.1f ms",
			hub.Sessions(), dir, applied, float64(took.Microseconds())/1e3)
		return hub
	case errors.Is(err, checkpoint.ErrNoCheckpoint):
		log.Printf("cogarmd: no checkpoint or WAL state, cold start")
	default:
		log.Printf("cogarmd: restore failed (%v), cold start", err)
	}
	return coldStart(cfg, stopStreaming)
}

// rebindSource reattaches a live source to one restored session using the
// tag cogarmd stamped at admission: demo subjects respawn their synthetic
// streamer over a fresh loopback transport, inlet sessions get a fresh UDP
// socket (its new address is printed). Sessions with unknown tags are
// dropped rather than left permanently silent.
func rebindSource(rec serve.RestoredSession, cfg resumeConfig, stop <-chan struct{}) (serve.Source, error) {
	switch {
	case strings.HasPrefix(rec.Tag, "demo:"):
		parts := strings.Split(rec.Tag, ":")
		if len(parts) != 3 {
			log.Printf("cogarmd: session %d has malformed tag %q, dropping", rec.ID, rec.Tag)
			return nil, nil
		}
		subject, err1 := strconv.Atoi(parts[1])
		idx, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			log.Printf("cogarmd: session %d has malformed tag %q, dropping", rec.ID, rec.Tag)
			return nil, nil
		}
		return demoSource(cfg.transport, subject, idx, cfg.seed, stop)
	case strings.HasPrefix(rec.Tag, "inlet"):
		inlet, err := stream.NewUDPInlet(stream.NewVirtualClock(0, 0), 4096)
		if err != nil {
			return nil, err
		}
		fmt.Printf("session %d listening on %s\n", rec.ID, inlet.Addr())
		return serve.RingSource{Ring: inlet.Ring, Closer: inlet}, nil
	default:
		log.Printf("cogarmd: session %d has unknown tag %q, dropping", rec.ID, rec.Tag)
		return nil, nil
	}
}

// coldStart is the original daemon path: train the shared decoder once and
// admit demo subjects plus external inlets.
func coldStart(cfg resumeConfig, stopStreaming <-chan struct{}) *serve.Hub {
	log.Printf("cogarmd: training shared decoder (once, for the whole fleet)")
	pcfg := core.DefaultConfig()
	pcfg.Seed = cfg.seed
	pipeline, err := core.New(pcfg)
	if err != nil {
		log.Fatal(err)
	}
	reg := serve.NewRegistry()
	spec := models.Spec{Family: models.FamilyRF, WindowSize: pcfg.WindowSize, Trees: 50, MaxDepth: 12}
	// Sessions resolve the classifier from the registry by key at Admit.
	if _, _, err := reg.GetOrBuild("rf-shared", func() (models.Classifier, int64, error) {
		c, res, err := pipeline.TrainModel(spec)
		if err == nil {
			log.Printf("cogarmd: decoder %s ready (val acc %.3f)", c.Name(), res.ValAcc)
		}
		return c, models.OpsPerInference(spec), err
	}); err != nil {
		log.Fatal(err)
	}

	hub, err := serve.NewHub(serve.Config{
		Shards:              cfg.shards,
		MaxSessionsPerShard: cfg.maxSessions,
		TickHz:              cfg.tickHz,
		MaxIdleTicks:        cfg.idleEvict,
		LatencyWindow:       1024,
	}, reg)
	if err != nil {
		log.Fatal(err)
	}

	for i := 0; i < cfg.subjects; i++ {
		subject := i % 5 // reuse the synthetic participant pool
		src, err := demoSource(cfg.transport, subject, i, cfg.seed, stopStreaming)
		if err != nil {
			log.Fatalf("cogarmd: demo subject %d: %v", i, err)
		}
		if _, err := hub.Admit(serve.SessionConfig{
			ModelKey: "rf-shared",
			Source:   src,
			Norm:     pipeline.NormFor(subject),
			Tag:      fmt.Sprintf("demo:%d:%d", subject, i),
		}); err != nil {
			log.Fatalf("cogarmd: admit demo subject %d: %v", i, err)
		}
	}
	for i := 0; i < cfg.listen; i++ {
		inlet, err := stream.NewUDPInlet(stream.NewVirtualClock(0, 0), 4096)
		if err != nil {
			log.Fatalf("cogarmd: inlet %d: %v", i, err)
		}
		id, err := hub.Admit(serve.SessionConfig{
			ModelKey: "rf-shared",
			Source:   serve.RingSource{Ring: inlet.Ring, Closer: inlet},
			Norm:     pipeline.GlobalStats(),
			// Unique per inlet: the tag doubles as the consistent-hash
			// routing key in cluster mode (rebind matches by prefix).
			Tag: fmt.Sprintf("inlet:%d", i),
		})
		if err != nil {
			log.Fatalf("cogarmd: admit inlet %d: %v", i, err)
		}
		fmt.Printf("session %d listening on %s\n", id, inlet.Addr())
	}
	return hub
}

// demoSource wires one in-process synthetic participant through a real
// loopback transport: generator → outlet → socket → inlet ring. The
// streaming goroutine paces samples at the EEG rate and wanders between
// mental tasks every few seconds. The returned source owns the inlet; the
// streamer stops when stop closes or the outlet's peer vanishes.
func demoSource(transport string, subject, idx int, seed uint64, stop <-chan struct{}) (serve.Source, error) {
	clock := stream.NewVirtualClock(0, 0)
	var push func(values []float64)
	var cleanup func()
	var ring *stream.Ring
	var closer io.Closer
	switch transport {
	case "udp":
		inlet, err := stream.NewUDPInlet(clock, 4096)
		if err != nil {
			return nil, err
		}
		outlet, err := stream.NewUDPOutlet(inlet.Addr(), clock, stream.LinkConfig{Seed: seed + uint64(idx)})
		if err != nil {
			inlet.Close()
			return nil, err
		}
		push = func(v []float64) { outlet.Push(v) }
		cleanup = func() { outlet.Close() }
		ring, closer = inlet.Ring, inlet
	case "lsl":
		outlet, err := stream.NewLSLOutlet(clock, stream.LinkConfig{Seed: seed + uint64(idx)})
		if err != nil {
			return nil, err
		}
		inlet, err := stream.NewLSLInlet(outlet.Addr(), clock, 4096, 100*time.Millisecond)
		if err != nil {
			outlet.Close()
			return nil, err
		}
		if err := outlet.WaitReady(2 * time.Second); err != nil {
			outlet.Close()
			inlet.Close()
			return nil, err
		}
		push = func(v []float64) { outlet.Push(v) }
		cleanup = func() { outlet.Close() }
		ring, closer = inlet.Ring, inlet
	default:
		return nil, fmt.Errorf("unknown transport %q (udp|lsl)", transport)
	}

	go func() {
		defer cleanup()
		gen := eeg.NewGenerator(eeg.NewSubject(subject), seed+uint64(idx)*31)
		rng := tensor.NewRNG(seed + uint64(idx)*97)
		state := eeg.Idle
		// Push in 40 ms chunks (5 samples at 125 Hz) to limit timer churn.
		const chunk = 5
		interval := time.Duration(float64(chunk) / eeg.SampleRate * float64(time.Second))
		tick := time.NewTicker(interval)
		defer tick.Stop()
		sinceSwitch := 0
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for i := 0; i < chunk; i++ {
					raw := gen.Next(state)
					push(raw[:])
				}
				sinceSwitch += chunk
				// Hold each intent ~3 s, then wander.
				if sinceSwitch > int(3*eeg.SampleRate) {
					state = eeg.Action(rng.Intn(3))
					sinceSwitch = 0
				}
			}
		}
	}()
	return serve.RingSource{Ring: ring, Closer: closer}, nil
}
