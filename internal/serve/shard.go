package serve

import (
	"io"
	"sync"
	"time"

	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/nn"
	"cognitivearm/internal/obs"
	"cognitivearm/internal/stream"
	"cognitivearm/internal/tensor"
)

// shard owns a partition of the fleet and ticks it on one goroutine. All
// session state is confined to the shard lock; the only shared hot-path
// object is the read-only classifier.
type shard struct {
	id  int
	cfg Config
	// onEvict notifies the hub that a session left this shard (idle timeout
	// or close), so the admission index stays in sync. It must only take
	// leaf locks: it is invoked while the shard lock is held.
	onEvict func(SessionID)
	// tel is the hub's shared telemetry handle set, never nil (its handles
	// are nil no-op sinks when telemetry is disabled). Everything it reaches
	// is lock-free and allocation-free, so it is safe to touch under the
	// shard lock and on the zero-alloc tick path.
	tel *serveObs

	mu       sync.Mutex
	sessions map[SessionID]*session
	evictq   []SessionID

	// pool is the hub-owned kernel worker pool the tick workspace attaches to
	// (nil = serial kernels). Guarded by mu: the hub swaps it on Start/Stop
	// and the tick re-attaches it to the arena workspace each reset.
	pool *tensor.Pool

	// arena is the shard's tick scratch: every per-tick temporary lives here
	// and is reused across ticks, so steady-state serving allocates nothing.
	// It is only touched under the shard lock (ticks and captures serialise
	// on it), never shared between shards.
	arena tickArena

	loopMu  sync.Mutex
	stop    chan struct{}
	wg      sync.WaitGroup
	running bool

	met shardMetrics
}

// tickArena owns the buffers one tick churns through: the pop buffer sources
// drain into, the ready-window tables the batch phase coalesces, the
// per-classifier grouping, the label output, and the tensor.Workspace every
// batched kernel draws its matrices from. Reset-by-truncation at the top of
// each tick recycles all of it; capacity is retained at the fleet's
// high-water mark.
type tickArena struct {
	ws        *tensor.Workspace
	popBuf    []stream.Sample
	readySess []*session
	readyWin  []*tensor.Matrix
	groups    []clfGroup
	labels    []int
}

// clfGroup collects the ready windows of one distinct classifier within a
// tick. Fleets normally share one model, so the groups slice holds a single
// reused entry and the linear scan in groupFor is one pointer compare; mixed
// fleets stay a handful of entries, never a per-tick map allocation.
type clfGroup struct {
	clf     models.Classifier
	stream  models.StreamPredictorWS // the sessions' resolved paths (session.schedule)
	batch   models.BatchPredictorWS
	idx     []int
	wins    []*tensor.Matrix
	streams []*nn.ConvStream // each window's session stream, nil entries for a model without one
}

// reset prepares the arena for the next tick, keeping every backing array.
// pool is re-attached every tick so a hub-level pool swap (Stop/Start) takes
// effect at the next tick boundary.
func (a *tickArena) reset(pool *tensor.Pool) {
	if a.ws == nil {
		a.ws = tensor.NewWorkspace()
	}
	a.ws.SetPool(pool)
	a.ws.Reset()
	a.readySess = a.readySess[:0]
	a.readyWin = a.readyWin[:0]
	for i := range a.groups {
		a.groups[i].clf, a.groups[i].stream, a.groups[i].batch = nil, nil, nil
		a.groups[i].idx = a.groups[i].idx[:0]
		a.groups[i].wins = a.groups[i].wins[:0]
		a.groups[i].streams = a.groups[i].streams[:0]
	}
	a.groups = a.groups[:0]
}

// groupFor returns the group accumulating windows for sess's classifier,
// reusing a truncated slot when one is free. Sessions sharing a classifier
// share its resolved paths, so the first one's stand for the group.
func (a *tickArena) groupFor(sess *session) *clfGroup {
	for i := range a.groups {
		if a.groups[i].clf == sess.clf {
			return &a.groups[i]
		}
	}
	if len(a.groups) < cap(a.groups) {
		a.groups = a.groups[:len(a.groups)+1]
	} else {
		a.groups = append(a.groups, clfGroup{})
	}
	g := &a.groups[len(a.groups)-1]
	g.clf, g.stream, g.batch = sess.clf, sess.stream, sess.batch
	return g
}

// closeSource releases an evicted session's source: io.Closer for network
// inlets, Stop for boards.
func closeSource(src Source) {
	switch v := src.(type) {
	case io.Closer:
		v.Close()
	case interface{ Stop() error }:
		v.Stop()
	}
}

// closeSources releases a batch of evicted sessions' sources. Closing can
// block (network inlets flush on Close), so callers must have dropped the
// shard lock first — eviction collects sources under the lock and this
// runs after it.
func closeSources(srcs []Source) {
	for _, src := range srcs {
		closeSource(src)
	}
}

func newShard(id int, cfg Config) *shard {
	return &shard{
		id:       id,
		cfg:      cfg,
		sessions: map[SessionID]*session{},
		met:      newShardMetrics(cfg.LatencyWindow),
	}
}

func (s *shard) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// setPool swaps the kernel pool the tick workspace attaches to. It takes the
// shard lock, so it returns only once any in-flight tick has finished — the
// hub relies on that to close the old pool with no kernel still using it.
func (s *shard) setPool(p *tensor.Pool) {
	s.mu.Lock()
	s.pool = p
	s.mu.Unlock()
}

// add places sess on this shard, fixes its drain schedule against the
// shard's tick rate and counts it in the live-sessions gauge. Every way into
// a fleet (Admit, RestoreSession, PromoteSession, RestoreHub) ends here, as
// every way out (eviction, extraction, Stop) decrements the gauge.
func (s *shard) add(sess *session) {
	sess.schedule(s.cfg.TickHz)
	s.mu.Lock()
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	s.tel.sessions.Inc()
}

// requestEvict queues a graceful removal; the session leaves at the next
// tick boundary (or immediately when no loop is running).
func (s *shard) requestEvict(id SessionID) {
	s.mu.Lock()
	s.evictq = append(s.evictq, id)
	running := s.isRunning()
	s.mu.Unlock()
	if !running {
		var toClose []Source
		s.mu.Lock()
		toClose = s.processEvictionsLocked(toClose)
		s.mu.Unlock()
		closeSources(toClose)
	}
}

func (s *shard) isRunning() bool {
	s.loopMu.Lock()
	defer s.loopMu.Unlock()
	return s.running
}

// processEvictionsLocked removes queued sessions, appending their sources
// to toClose for the caller to release after dropping the lock (source
// Close can block on network teardown, which must not happen inside the
// critical section). Callers hold s.mu.
func (s *shard) processEvictionsLocked(toClose []Source) []Source {
	for _, id := range s.evictq {
		sess, ok := s.sessions[id]
		if !ok {
			continue
		}
		delete(s.sessions, id)
		toClose = append(toClose, sess.cfg.Source)
		if s.onEvict != nil {
			s.onEvict(id)
		}
		s.met.evict()
		s.tel.evictions.Inc()
		s.tel.sessions.Dec()
		s.tel.events.Record(obs.EvEvict, s.id, uint64(id), 0, 0)
	}
	s.evictq = s.evictq[:0]
	return toClose
}

func (s *shard) sessionStats(id SessionID) (SessionStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return SessionStats{}, false
	}
	return sess.stats(), true
}

func (s *shard) closeAll() {
	var toClose []Source
	s.mu.Lock()
	for id, sess := range s.sessions {
		toClose = append(toClose, sess.cfg.Source)
		delete(s.sessions, id)
		if s.onEvict != nil {
			s.onEvict(id)
		}
		s.tel.sessions.Dec()
	}
	s.evictq = s.evictq[:0]
	s.mu.Unlock()
	closeSources(toClose)
}

func (s *shard) start() {
	s.loopMu.Lock()
	defer s.loopMu.Unlock()
	if s.running {
		return
	}
	s.running = true
	s.stop = make(chan struct{})
	s.wg.Add(1)
	go s.run()
}

func (s *shard) stopLoop() {
	s.loopMu.Lock()
	if !s.running {
		s.loopMu.Unlock()
		return
	}
	s.running = false
	close(s.stop)
	s.loopMu.Unlock()
	s.wg.Wait()
}

// run paces ticks at TickHz. A tick that overruns its period simply delays
// the next one (ticker backpressure) — the p99 latency snapshot is where
// overload becomes visible.
func (s *shard) run() {
	defer s.wg.Done()
	interval := time.Duration(float64(time.Second) / s.cfg.TickHz)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.tick()
		}
	}
}

// tick advances every session one classification period: drain due samples
// (plus a buffered source's catch-up, session.drain) into each rolling
// window, coalesce all ready windows into one batched
// inference per shared model, then feed labels back through each session's
// debounce. Sessions silent for MaxIdleTicks are queued for eviction.
//
// The whole loop runs out of the shard's arena: sources drain into a reused
// pop buffer, ready windows are read zero-copy from each session's Windower
// (safe because every ready window is classified before any session sees
// further pushes), and the batched classifiers draw all scratch from the
// shard workspace — at steady state a tick performs no heap allocations.
//
// The tick also records a per-stage wall-time breakdown — drain (source
// reads), window (filter + normalise + push), infer (batched
// classification), decide (debounce + counters) — into process-global
// lock-free histograms. The stage clocks are monotonic time.Now reads
// accumulated into locals and observed once per tick, so the instrumented
// tick stays zero-allocation. The clocks always run; with telemetry
// disabled the handles are nil no-op sinks and the readings go nowhere.
func (s *shard) tick() {
	tel := s.tel
	var drainNs, windowNs, inferNs, decideNs int64
	var toClose []Source
	start := time.Now()
	s.mu.Lock()
	toClose = s.processEvictionsLocked(toClose)
	s.arena.reset(s.pool)
	ar := &s.arena

	// Ingest phase: windows become ready independently per session.
	var samplesIn, caughtUp uint64
	for id, sess := range s.sessions {
		due := sess.due(s.cfg.TickHz)
		stamp := time.Now()
		ar.popBuf = sess.cfg.Source.ReadInto(ar.popBuf[:0], sess.drain(due))
		samples := ar.popBuf
		now := time.Now()
		drainNs += now.Sub(stamp).Nanoseconds()
		stamp = now
		if len(samples) == 0 {
			sess.idleTicks++
			// Idle eviction only applies to sessions that have streamed
			// before: a session admitted ahead of its client connecting
			// (cogarmd -listen) waits indefinitely.
			if sess.fed && s.cfg.MaxIdleTicks > 0 && sess.idleTicks >= s.cfg.MaxIdleTicks {
				s.evictq = append(s.evictq, id)
			}
			continue
		}
		sess.fed = true
		sess.idleTicks = 0
		sess.ver++ // signal-path state advances: the next delta carries this session
		samplesIn += uint64(len(samples))
		if len(samples) > due {
			caughtUp += uint64(len(samples) - due)
		}
		pushed := 0
		for _, smp := range samples {
			if sess.win.Push(smp.Values) {
				pushed++
			}
		}
		if sess.conv != nil {
			sess.conv.Advance(pushed)
		}
		if sess.win.Ready() {
			ar.readySess = append(ar.readySess, sess)
			ar.readyWin = append(ar.readyWin, sess.win.Window())
		}
		windowNs += time.Since(stamp).Nanoseconds()
	}

	// Batch phase: one batched call per distinct model, through the path
	// schedule resolved (streamed, batched, or per window). Fleets normally
	// share one classifier, so this is a single call for the whole shard;
	// mixed fleets degrade to one call per model, never one per session.
	// Both classifier kinds exploit the coalesced batch: the forest walks
	// it tree-major (rf.Forest.PredictBatchWS) and NN families fuse it into
	// batch×feature GEMMs (nn.Network.ForwardBatch), so per-inference cost
	// falls as fleet density rises.
	if len(ar.readySess) > 0 {
		for i, sess := range ar.readySess {
			g := ar.groupFor(sess)
			g.idx = append(g.idx, i)
			g.wins = append(g.wins, ar.readyWin[i])
			g.streams = append(g.streams, sess.conv)
		}
		for gi := range ar.groups {
			g := &ar.groups[gi]
			stamp := time.Now()
			switch {
			case g.stream != nil:
				ar.labels = g.stream.PredictStreamWS(ar.ws, g.wins, g.streams, ar.labels[:0])
			case g.batch != nil:
				ar.labels = g.batch.PredictBatchWS(ar.ws, g.wins, ar.labels[:0])
			default:
				ar.labels = models.PredictEach(g.clf, g.wins, ar.labels[:0])
			}
			now := time.Now()
			inferNs += now.Sub(stamp).Nanoseconds()
			stamp = now
			for j, i := range g.idx {
				ar.readySess[i].observe(eeg.Action(ar.labels[j]))
			}
			s.met.batch(len(g.wins))
			decideNs += time.Since(stamp).Nanoseconds()
			tel.batches.Inc()
			tel.inferences.Add(uint64(len(g.wins)))
			tel.batchSize.Observe(float64(len(g.wins)))
		}
	}
	toClose = s.processEvictionsLocked(toClose)
	s.mu.Unlock()
	closeSources(toClose)

	// One clock read ends the tick: the latency ring behind p99, the health
	// probe's last-tick time and the tick histogram all see the same end.
	end := time.Now()
	lat := end.Sub(start)
	s.met.tick(end.UnixNano(), lat.Seconds(), samplesIn)
	tel.ticks.Inc()
	tel.samples.Add(samplesIn)
	tel.catchUp.Add(caughtUp)
	tel.tick.ObserveDuration(lat.Nanoseconds())
	tel.stageDrain.ObserveDuration(drainNs)
	tel.stageWindow.ObserveDuration(windowNs)
	tel.stageInfer.ObserveDuration(inferNs)
	tel.stageDecide.ObserveDuration(decideNs)
}

// snapshot reports the shard's counters and appends its sorted recent tick
// latencies to pool (see shardMetrics.snapshot).
func (s *shard) snapshot(pool []float64) (ShardSnapshot, []float64) {
	snap, pool := s.met.snapshot(pool)
	snap.Shard = s.id
	snap.Sessions = s.len()
	return snap, pool
}
