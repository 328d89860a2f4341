package cluster

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/models"
	"cognitivearm/internal/obs"
	"cognitivearm/internal/serve"
)

// Protocol verbs. Every inter-node connection carries exactly one request:
// a verb byte, a body, and one framed ack back. Control bodies (join,
// announce, leave) are gob-encoded memberMsg values framed by
// stream.WriteMsg; a migrate body is a fleet payload (checkpoint.WriteFleet,
// exactly a checkpoint's fleet file), self-delimiting via its seals.
const (
	verbJoin      = byte(1) // memberMsg → ack with full membership
	verbAnnounce  = byte(2) // memberMsg → ack (add member + rebalance)
	verbLeave     = byte(3) // memberMsg → ack (remove member)
	verbMigrate   = byte(4) // fleet payload → ack with restored count
	verbPing      = byte(5) // memberMsg → ack (heartbeat; also beats the detector)
	verbReplicate = byte(6) // memberMsg handshake, then a wal stream with one ack per batch
	verbLocate    = byte(7) // locateMsg → ack with owner, owner addr, ingest addr
)

// ioTimeout bounds one inter-node exchange; migrations carry whole models,
// so this is generous next to the control-message round trips. A replication
// tail — the one long-lived connection — extends it per batch.
const ioTimeout = 60 * time.Second

// memberMsg is the control-plane body: the sender's identity.
type memberMsg struct {
	ID   string
	Addr string
}

// locateMsg asks which member owns a routing key (verbLocate body).
type locateMsg struct {
	Key string
}

// ackMsg is every request's response.
type ackMsg struct {
	// Err is the remote failure, empty on success.
	Err string
	// Members is the full membership (id → addr) on a join ack.
	Members map[string]string
	// Handled is how many of a migrate batch's sessions the receiver fully
	// consumed (restored or deliberately dropped), in session-ID order. On a
	// failed migration the sender restores only the remainder locally, so a
	// partial failure never leaves one session live on both nodes. On a
	// replication batch ack it is the standby's live replica count.
	Handled int
	// Owner, OwnerAddr and Source answer a locate: the owning member, its
	// cluster endpoint, and — when the key's session is live on the answering
	// node — the session's ingest address for re-homing streamers.
	Owner     string
	OwnerAddr string
	Source    string
}

// NotOwnerError reports that a session key routes to another node; callers
// redirect there.
type NotOwnerError struct {
	Owner string
	Addr  string
}

func (e *NotOwnerError) Error() string {
	return fmt.Sprintf("cluster: key owned by %s (%s)", e.Owner, e.Addr)
}

// Config describes one cluster node.
type Config struct {
	// ID uniquely names this node on the ring. Empty defaults to the bound
	// listen address, which is unique per fleet by construction.
	ID string
	// ListenAddr is the inter-node endpoint to bind ("127.0.0.1:0" picks a
	// free loopback port — the test and single-machine shape).
	ListenAddr string
	// VNodes is the virtual-node count per member (DefaultVNodes when 0).
	// All nodes of one fleet must agree on it.
	VNodes int
	// Rebind attaches a live sample source to each migrated-in session, by
	// the same contract as serve.SourceFactory on checkpoint restore:
	// (nil, nil) drops the session, an error rejects the migration. Failover
	// promotion rebinds replica sessions through the same factory.
	Rebind serve.SourceFactory
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)

	// Replicas is the warm-standby count: how many ring successors this node
	// tails its dirty-session records to. 0 disables replication and
	// promotion entirely (the pre-HA shape); cogarmd defaults to 1.
	Replicas int
	// ReplicateEvery is the replication interval — the staleness bound a
	// promoted session can lose. 0 runs no loop: tests (and embedders that
	// pace replication themselves) call ReplicateOnce directly.
	ReplicateEvery time.Duration
	// DialBackoffBase and DialBackoffCap bound the capped exponential
	// backoff applied to a standby's redial after replication failures
	// (DefaultBackoffBase / DefaultBackoffCap when zero). One acknowledged
	// batch resets the target to eager redial.
	DialBackoffBase time.Duration
	DialBackoffCap  time.Duration
	// HeartbeatEvery is the ping interval. 0 runs no loop: tests call
	// SendHeartbeats and DetectFailures directly with explicit clocks.
	HeartbeatEvery time.Duration
	// SuspectAfter and PhiThreshold tune the failure detector
	// (DefaultSuspectAfter / DefaultPhiThreshold when zero): a member is
	// reaped once it has been silent for SuspectAfter AND its silence is
	// PhiThreshold times its observed mean heartbeat interval.
	SuspectAfter time.Duration
	PhiThreshold float64

	// Dial overrides outbound connection establishment and WrapListener the
	// inbound side — the fault-injection seams (faultnet.Network.Dial,
	// faultnet.Listener). Nil means plain TCP.
	Dial         func(network, addr string, timeout time.Duration) (net.Conn, error)
	WrapListener func(net.Listener) net.Listener
}

// Node wraps one serving hub with a cluster endpoint: consistent-hash
// routing, membership control messages, and live session migration. Create the hub first (cold start or checkpoint restore), then
// the node, then Join an existing member.
type Node struct {
	id     string
	hub    *serve.Hub
	ring   *Ring
	rebind serve.SourceFactory
	logf   func(string, ...any)
	dial   func(network, addr string, timeout time.Duration) (net.Conn, error)

	ln        net.Listener
	wg        sync.WaitGroup
	closeOnce sync.Once
	stop      chan struct{}

	mu    sync.Mutex
	peers map[string]string // member id → addr, excluding self

	// High-availability plane. det scores peer liveness; replicas holds the
	// warm-standby images other members tail to this node; replMu serializes
	// replication sweeps and owns links (one tail per standby) — it is the
	// replication worker's private lock, never taken by serving paths.
	det        *detector
	replicaN   int
	replicas   *replicaStore
	replMu     sync.Mutex
	links      map[string]*replLink
	backoff    *dialBackoff // per-standby redial pacing; owned by replMu
	lastReplOK atomic.Int64 // unix nanos of the last fully acknowledged sweep

	migratedIn  atomic.Uint64
	migratedOut atomic.Uint64
}

// NewNode binds the cluster endpoint and starts serving inter-node requests.
// The returned node's ring initially contains only itself.
func NewNode(cfg Config, hub *serve.Hub) (*Node, error) {
	if hub == nil {
		return nil, fmt.Errorf("cluster: node needs a hub")
	}
	if cfg.Rebind == nil {
		return nil, fmt.Errorf("cluster: node needs a Rebind source factory for migrated-in sessions")
	}
	addr := cfg.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	id := cfg.ID
	if id == "" {
		id = ln.Addr().String()
	}
	if cfg.WrapListener != nil {
		ln = cfg.WrapListener(ln)
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dial := cfg.Dial
	if dial == nil {
		dial = net.DialTimeout
	}
	n := &Node{
		id:       id,
		hub:      hub,
		ring:     NewRing(cfg.VNodes),
		rebind:   cfg.Rebind,
		logf:     logf,
		dial:     dial,
		ln:       ln,
		stop:     make(chan struct{}),
		peers:    map[string]string{},
		det:      newDetector(cfg.SuspectAfter, cfg.PhiThreshold),
		replicaN: cfg.Replicas,
		replicas: newReplicaStore(),
		links:    map[string]*replLink{},
		backoff:  newDialBackoff(cfg.DialBackoffBase, cfg.DialBackoffCap, id),
	}
	n.ring.Add(id)
	clusterTel().members.Set(float64(n.ring.Len()))
	n.wg.Add(1)
	go n.serve()
	if cfg.HeartbeatEvery > 0 {
		n.wg.Add(1)
		go n.heartbeatLoop(cfg.HeartbeatEvery)
	}
	if cfg.Replicas > 0 && cfg.ReplicateEvery > 0 {
		n.wg.Add(1)
		go n.replicateLoop(cfg.ReplicateEvery)
	}
	return n, nil
}

// heartbeatLoop pings peers and reaps detected failures on a fixed cadence.
func (n *Node) heartbeatLoop(every time.Duration) {
	defer n.wg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
			n.SendHeartbeats()
			n.DetectFailures(time.Now())
		}
	}
}

// replicateLoop ships a dirty-delta batch to every standby on a fixed
// cadence. Errors are logged and retried next interval — the tail reconnects
// and full-resyncs on its own.
func (n *Node) replicateLoop(every time.Duration) {
	defer n.wg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
			if err := n.ReplicateOnce(); err != nil {
				n.logf("cluster: %s: %v", n.id, err)
			}
		}
	}
}

// ID returns the node's ring identity.
func (n *Node) ID() string { return n.id }

// Addr returns the bound inter-node endpoint address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Hub returns the serving hub this node fronts.
func (n *Node) Hub() *serve.Hub { return n.hub }

// Ring exposes the node's membership view (for diagnostics and drivers).
func (n *Node) Ring() *Ring { return n.ring }

// Close stops the cluster endpoint, the heartbeat/replication loops, and any
// open replication tails. It does not stop the hub (the caller owns it) and
// does not migrate sessions away — use Drain first for a graceful departure.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.stop)
		err = n.ln.Close()
	})
	n.wg.Wait()
	n.replMu.Lock()
	for id, link := range n.links {
		link.conn.Close()
		delete(n.links, id)
	}
	n.replMu.Unlock()
	return err
}

// Owner resolves the member owning a session key. local reports whether it
// is this node; when it is not, addr is the owner's inter-node endpoint.
func (n *Node) Owner(key string) (id, addr string, local bool) {
	owner, ok := n.ring.Owner(key)
	if !ok || owner == n.id {
		return n.id, n.Addr(), true
	}
	n.mu.Lock()
	addr = n.peers[owner]
	n.mu.Unlock()
	return owner, addr, false
}

// Admit places a session on this node if its Tag routes here, and otherwise
// returns a *NotOwnerError naming the owner so the caller can redirect. The
// Tag doubles as the session's stable routing key and must be set for
// cluster-routed sessions.
func (n *Node) Admit(sc serve.SessionConfig) (serve.SessionID, error) {
	if sc.Tag == "" {
		return 0, fmt.Errorf("cluster: session needs a Tag (routing key)")
	}
	if owner, addr, local := n.Owner(sc.Tag); !local {
		return 0, &NotOwnerError{Owner: owner, Addr: addr}
	}
	return n.hub.Admit(sc)
}

// Join adds this node to an existing fleet: it registers with the seed
// member (which hands back the full membership and synchronously migrates
// the sessions this node now owns), then announces itself to every other
// member, each of which does the same. When Join returns, the ring has
// converged and every session this node owns is running on it.
func (n *Node) Join(seedAddr string) error {
	ack, ackBuf, err := n.call(seedAddr, verbJoin, memberMsg{ID: n.id, Addr: n.Addr()}, nil)
	if err != nil {
		return fmt.Errorf("cluster: join %s: %w", seedAddr, err)
	}
	for id, addr := range ack.Members {
		if id != n.id {
			n.addMember(id, addr)
		}
	}
	// Announce to everyone else. The seed is announced to again, which is a
	// harmless no-op (membership add is idempotent and its rebalance has
	// nothing left to move).
	n.mu.Lock()
	peers := make(map[string]string, len(n.peers))
	for id, addr := range n.peers {
		peers[id] = addr
	}
	n.mu.Unlock()
	for id, addr := range peers {
		// One reuse buffer across the whole announce sweep.
		if _, ackBuf, err = n.call(addr, verbAnnounce, memberMsg{ID: n.id, Addr: n.Addr()}, ackBuf); err != nil {
			return fmt.Errorf("cluster: announce to %s (%s): %w", id, addr, err)
		}
	}
	// The joiner may already be serving sessions of its own (a daemon that
	// cold-started a fleet before joining): push away the ones the merged
	// ring assigns elsewhere, or they would double-decode once their owner
	// admits a redirected client.
	if err := n.rebalance(); err != nil {
		return fmt.Errorf("cluster: join: rebalance own sessions: %w", err)
	}
	n.logf("cluster: %s joined fleet of %d", n.id, n.ring.Len())
	return nil
}

// Drain migrates every local session to the owners the ring chooses without
// this node, then announces departure to every peer. The hub keeps serving
// until Drain returns, so sessions tick up to the instant each is captured.
// On migration failure the node re-enters the ring with its sessions
// restored locally and the error is returned.
func (n *Node) Drain() error {
	if n.ring.Len() <= 1 {
		return fmt.Errorf("cluster: nothing to drain to (single-member ring)")
	}
	n.ring.Remove(n.id)
	if err := n.rebalance(); err != nil {
		n.ring.Add(n.id)
		return fmt.Errorf("cluster: drain: %w", err)
	}
	t := clusterTel()
	t.members.Set(float64(n.ring.Len()))
	t.events.Record(obs.EvDrain, -1, 0, int64(n.ring.Len()), 0)
	n.mu.Lock()
	peers := make(map[string]string, len(n.peers))
	for id, addr := range n.peers {
		peers[id] = addr
	}
	n.mu.Unlock()
	var ackBuf []byte
	for id, addr := range peers {
		// A peer that misses the leave keeps a ghost member routing ~1/N of
		// its keys at a dead address, so retry transient failures before
		// giving up loudly.
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if _, ackBuf, err = n.call(addr, verbLeave, memberMsg{ID: n.id, Addr: n.Addr()}, ackBuf); err == nil {
				break
			}
			time.Sleep(time.Duration(attempt+1) * 100 * time.Millisecond)
		}
		if err != nil {
			n.logf("cluster: leave notification to %s failed after retries: %v — its failure detector will reap this node once it stops heartbeating", id, err)
		}
	}
	n.logf("cluster: %s drained", n.id)
	return nil
}

// Snapshot is a point-in-time cluster view of one node.
type Snapshot struct {
	ID      string
	Addr    string
	Members []string
	// Sessions is the local hub's live session count; MigratedIn/Out count
	// sessions this node has received/handed off since start.
	Sessions    int
	MigratedIn  uint64
	MigratedOut uint64
}

// Snapshot reports membership and migration counters.
func (n *Node) Snapshot() Snapshot {
	return Snapshot{
		ID:          n.id,
		Addr:        n.Addr(),
		Members:     n.ring.Nodes(),
		Sessions:    n.hub.Sessions(),
		MigratedIn:  n.migratedIn.Load(),
		MigratedOut: n.migratedOut.Load(),
	}
}

// Status is the node's /statusz section: membership, each member's expected
// share of the key space, and the migration counters.
type Status struct {
	ID      string   `json:"id"`
	Addr    string   `json:"addr"`
	Members []string `json:"members"`
	// Shares maps member → owned fraction of the hash space (expected share
	// of routing keys); values sum to 1.
	Shares      map[string]float64 `json:"shares"`
	MigratedIn  uint64             `json:"migrated_in"`
	MigratedOut uint64             `json:"migrated_out"`
	// Standbys lists the members this node replicates to; ReplicaOf the
	// members whose warm-standby images this node holds; ReplicaSessions the
	// session records in those images.
	Standbys        []string `json:"standbys,omitempty"`
	ReplicaOf       []string `json:"replica_of,omitempty"`
	ReplicaSessions int      `json:"replica_sessions"`
}

// Status reports the node's ring view for the admin plane.
func (n *Node) Status() any {
	return Status{
		ID:              n.id,
		Addr:            n.Addr(),
		Members:         n.ring.Nodes(),
		Shares:          n.ring.Shares(),
		MigratedIn:      n.migratedIn.Load(),
		MigratedOut:     n.migratedOut.Load(),
		Standbys:        n.Standbys(),
		ReplicaOf:       n.replicas.sources(),
		ReplicaSessions: n.replicas.total(),
	}
}

// String renders the snapshot as a log line.
func (s Snapshot) String() string {
	return fmt.Sprintf("node %s (%s): %d members %v, %d sessions, migrated %d in / %d out",
		s.ID, s.Addr, len(s.Members), s.Members, s.Sessions, s.MigratedIn, s.MigratedOut)
}

func (n *Node) addMember(id, addr string) {
	n.mu.Lock()
	n.peers[id] = addr
	n.mu.Unlock()
	already := n.ring.Has(id)
	n.ring.Add(id)
	// Liveness accounting starts at membership, not at first beat: a member
	// that joins and never answers a single ping is reaped by deadline alone.
	n.det.Expect(id, time.Now())
	if !already {
		t := clusterTel()
		t.joins.Inc()
		t.members.Set(float64(n.ring.Len()))
		t.events.Record(obs.EvJoin, -1, 0, int64(n.ring.Len()), 0)
	}
}

func (n *Node) removeMember(id string) {
	n.mu.Lock()
	delete(n.peers, id)
	n.mu.Unlock()
	n.det.Forget(id)
	if n.ring.Has(id) {
		n.ring.Remove(id)
		t := clusterTel()
		t.leaves.Inc()
		t.members.Set(float64(n.ring.Len()))
		t.events.Record(obs.EvLeave, -1, 0, int64(n.ring.Len()), 0)
	}
}

// rebalance streams every local session whose ring owner is no longer this
// node to its new owner. Sessions with empty Tags have no routing key and
// are pinned local. The first failed transfer aborts with its sessions
// restored locally.
func (n *Node) rebalance() error {
	byOwner := map[string][]serve.SessionID{}
	for id, key := range n.hub.SessionKeys() {
		if key == "" {
			continue
		}
		owner, ok := n.ring.Owner(key)
		if !ok || owner == n.id {
			continue
		}
		byOwner[owner] = append(byOwner[owner], id)
	}
	// Deterministic transfer order keeps multi-owner rebalances reproducible.
	owners := make([]string, 0, len(byOwner))
	for owner := range byOwner {
		owners = append(owners, owner)
	}
	sort.Strings(owners)
	for _, owner := range owners {
		// ID order is also the order the receiver's fold hands sessions back
		// in, which is what makes its Handled count index this list.
		ids := byOwner[owner]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if err := n.migrateTo(owner, ids); err != nil {
			return err
		}
	}
	return nil
}

// migrateTo extracts the given sessions and streams them to owner as a
// fleet payload. Extraction is atomic per session (capture-and-remove
// under the shard lock), so the receiving node resumes each session exactly
// at the tick boundary it left this one. On failure the extracted sessions
// are restored locally so none is lost.
func (n *Node) migrateTo(owner string, ids []serve.SessionID) error {
	n.mu.Lock()
	addr, ok := n.peers[owner]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: no address for member %s", owner)
	}
	recs := make([]checkpoint.SessionRecord, 0, len(ids))
	for _, id := range ids {
		if rec, ok := n.hub.ExtractSession(id); ok {
			recs = append(recs, *rec)
		}
	}
	if len(recs) == 0 {
		return nil
	}
	handled := 0
	d, err := n.migrationDelta(recs)
	if err == nil {
		handled, err = n.sendMigration(addr, d)
	}
	if err != nil {
		// Restore only what the receiver did not consume. Sessions it
		// already restored (or deliberately dropped) stay its; restoring
		// them here too would double-decode the subject on both nodes. A
		// transport failure with no ack reports handled=0 — the sender
		// restores everything, accepting a possible duplicate over a
		// certainly lost session.
		n.migratedOut.Add(uint64(handled))
		t := clusterTel()
		t.migrateFails.Inc()
		t.migrationsOut.Add(uint64(handled))
		n.restoreLocal(recs[handled:])
		return fmt.Errorf("cluster: migrate %d sessions to %s (%s): %w", len(recs), owner, addr, err)
	}
	n.migratedOut.Add(uint64(len(recs)))
	t := clusterTel()
	t.migrationsOut.Add(uint64(len(recs)))
	t.events.Record(obs.EvMigrateOut, -1, 0, int64(len(recs)), 0)
	n.logf("cluster: %s migrated %d sessions to %s", n.id, len(recs), owner)
	return nil
}

// migrationDelta encodes session records, and the models they reference,
// as the fleet a migration ships; the payload's view is built from the
// records themselves.
func (n *Node) migrationDelta(recs []checkpoint.SessionRecord) (*checkpoint.Delta, error) {
	cfg := n.hub.Config()
	clfs, macs := n.hub.Registry().Resolved()
	d := &checkpoint.Delta{
		Manifest: checkpoint.Manifest{
			Hub: checkpoint.HubConfig{
				Shards:              cfg.Shards,
				MaxSessionsPerShard: cfg.MaxSessionsPerShard,
				TickHz:              cfg.TickHz,
				MaxIdleTicks:        cfg.MaxIdleTicks,
				LatencyWindow:       cfg.LatencyWindow,
			},
		},
		Models:    map[string]models.Classifier{},
		ModelMACs: map[string]int64{},
	}
	for i := range recs {
		d.Records.Append(&recs[i])
		key := recs[i].ModelKey
		if _, done := d.Models[key]; done {
			continue
		}
		clf, ok := clfs[key]
		if !ok {
			return nil, fmt.Errorf("session %d references unresolved model %q", recs[i].ID, key)
		}
		d.Models[key] = clf
		d.ModelMACs[key] = macs[key]
	}
	return d, nil
}

// sendMigration performs one migrate exchange: verb, fleet payload, ack.
// It returns how many of the streamed sessions the receiver consumed, which
// on failure (ack carrying an error) tells the caller where to resume local
// restoration; without an ack at all it returns 0.
func (n *Node) sendMigration(addr string, d *checkpoint.Delta) (int, error) {
	conn, err := n.dial("tcp", addr, ioTimeout)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(ioTimeout))
	if _, err := conn.Write([]byte{verbMigrate}); err != nil {
		return 0, err
	}
	if err := checkpoint.WriteFleet(conn, d); err != nil {
		return 0, err
	}
	ack, _, err := readAck(conn, nil)
	if err != nil {
		return 0, err
	}
	if ack.Err != "" {
		return ack.Handled, fmt.Errorf("remote: %s", ack.Err)
	}
	return ack.Handled, nil
}

// restoreLocal re-admits extracted sessions after a failed transfer, using
// the rebind factory to attach fresh sources (the originals were closed on
// extraction; their buffered samples ride in the records).
func (n *Node) restoreLocal(recs []checkpoint.SessionRecord) {
	for i := range recs {
		rec := &recs[i]
		src, err := n.rebind(serve.RestoredSession{
			ID:           serve.SessionID(rec.ID),
			ModelKey:     rec.ModelKey,
			Tag:          rec.Tag,
			Channels:     rec.Channels,
			SampleRateHz: rec.SampleRateHz,
		})
		if err != nil || src == nil {
			n.logf("cluster: session %d lost in failed migration (rebind: %v)", rec.ID, err)
			continue
		}
		if _, err := n.hub.RestoreSession(rec, src); err != nil {
			n.logf("cluster: session %d lost in failed migration (restore: %v)", rec.ID, err)
		}
	}
}

// serve accepts inter-node connections until the listener closes.
func (n *Node) serve() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handle(conn)
		}()
	}
}

// handle serves one request/response exchange.
func (n *Node) handle(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(ioTimeout))
	var verb [1]byte
	if _, err := io.ReadFull(conn, verb[:]); err != nil {
		return
	}
	switch verb[0] {
	case verbJoin, verbAnnounce, verbLeave:
		msg, _, err := readMemberMsg(conn, nil)
		if err != nil {
			writeAck(conn, ackMsg{Err: err.Error()})
			return
		}
		switch verb[0] {
		case verbJoin:
			n.addMember(msg.ID, msg.Addr)
			// Hand over the joiner's sessions before acking, so a completed
			// Join means a converged fleet. A failed handover rolls the
			// joiner back out of the ring: an erroring Join must leave no
			// ghost member routing ~1/N of keys to a node that gave up.
			// (The failed transfer itself restored its sessions locally.)
			if err := n.rebalance(); err != nil {
				n.logf("cluster: rebalance toward %s: %v", msg.ID, err)
				n.removeMember(msg.ID)
				writeAck(conn, ackMsg{Err: err.Error()})
				return
			}
			members := map[string]string{n.id: n.Addr()}
			n.mu.Lock()
			for id, addr := range n.peers {
				members[id] = addr
			}
			n.mu.Unlock()
			writeAck(conn, ackMsg{Members: members})
		case verbAnnounce:
			n.addMember(msg.ID, msg.Addr)
			if err := n.rebalance(); err != nil {
				n.logf("cluster: rebalance toward %s: %v", msg.ID, err)
				n.removeMember(msg.ID)
				writeAck(conn, ackMsg{Err: err.Error()})
				return
			}
			writeAck(conn, ackMsg{})
		case verbLeave:
			// A clean leave also clears any replica image of the departing
			// member: it drained its sessions away, so promoting a stale
			// replica later would resurrect duplicates.
			n.removeMember(msg.ID)
			n.replicas.drop(msg.ID)
			clusterTel().replicaSessions.Set(float64(n.replicas.total()))
			writeAck(conn, ackMsg{})
		}
	case verbPing:
		msg, _, err := readMemberMsg(conn, nil)
		if err != nil {
			writeAck(conn, ackMsg{Err: err.Error()})
			return
		}
		if !n.ring.Has(msg.ID) {
			// A reaped member still pinging gets a loud refusal, not a beat:
			// its Drain-less restart must re-Join, not linger as a ghost.
			writeAck(conn, ackMsg{Err: fmt.Sprintf("unknown member %s", msg.ID)})
			return
		}
		n.det.Beat(msg.ID, time.Now())
		writeAck(conn, ackMsg{})
	case verbReplicate:
		// An inbound tail is the one long-lived connection, and closing the
		// listener does not close conns it already accepted — so tie the tail
		// to node shutdown, or Close would wait out a full read deadline on
		// every live tail.
		done := make(chan struct{})
		go func() {
			select {
			case <-n.stop:
				conn.Close()
			case <-done:
			}
		}()
		n.handleReplicate(conn)
		close(done)
	case verbLocate:
		msg, _, err := readLocateMsg(conn, nil)
		if err != nil {
			writeAck(conn, ackMsg{Err: err.Error()})
			return
		}
		owner, addr, local := n.Owner(msg.Key)
		ack := ackMsg{Owner: owner, OwnerAddr: addr}
		if local {
			if sa, ok := n.hub.SourceAddrByTag(msg.Key); ok {
				ack.Source = sa
			}
		}
		writeAck(conn, ack)
	case verbMigrate:
		handled, err := n.receiveMigration(conn)
		if err != nil {
			n.logf("cluster: inbound migration failed after %d sessions: %v", handled, err)
			writeAck(conn, ackMsg{Err: err.Error(), Handled: handled})
			return
		}
		writeAck(conn, ackMsg{Handled: handled})
	default:
		writeAck(conn, ackMsg{Err: fmt.Sprintf("unknown verb %d", verb[0])})
	}
}

// receiveMigration reads one fleet payload with the reader a checkpoint load
// uses (checkpoint.ReadFleet: a payload holding a session whose model it does
// not carry is refused whole) and resumes its sessions on the local hub.
// Models the registry has not resolved yet are registered from the payload; a
// key the registry already holds keeps the local instance — in a fleet, one
// model key names identical weights everywhere (the registry trains
// deterministically or loads the same artifact), so the shared local copy
// serves migrated sessions bitwise-identically.
//
// The returned count is how many sessions were fully consumed (restored or
// deliberately dropped by the rebind factory), in session-ID order — valid even
// alongside an error, so the sender can restore exactly the remainder.
func (n *Node) receiveMigration(conn net.Conn) (int, error) {
	state, err := checkpoint.ReadFleet(conn)
	if err != nil {
		return 0, err
	}
	if err := n.registerModels(state); err != nil {
		return 0, err
	}
	restored, handled := 0, 0
	for i := range state.Sessions {
		rec := &state.Sessions[i]
		src, err := n.rebind(serve.RestoredSession{
			ID:           serve.SessionID(rec.ID),
			ModelKey:     rec.ModelKey,
			Tag:          rec.Tag,
			Channels:     rec.Channels,
			SampleRateHz: rec.SampleRateHz,
		})
		if err != nil {
			n.migratedIn.Add(uint64(restored))
			clusterTel().migrationsIn.Add(uint64(restored))
			return handled, fmt.Errorf("session %d rebind: %w", rec.ID, err)
		}
		if src == nil {
			n.logf("cluster: migrated session %d dropped by rebind factory", rec.ID)
			handled++
			continue
		}
		if _, err := n.hub.RestoreSession(rec, src); err != nil {
			n.migratedIn.Add(uint64(restored))
			clusterTel().migrationsIn.Add(uint64(restored))
			return handled, err
		}
		restored++
		handled++
	}
	n.migratedIn.Add(uint64(restored))
	t := clusterTel()
	t.migrationsIn.Add(uint64(restored))
	t.events.Record(obs.EvMigrateIn, -1, 0, int64(restored), 0)
	n.logf("cluster: %s accepted %d migrated sessions", n.id, restored)
	return handled, nil
}

// registerModels adds a folded state's models to the hub's registry. A key
// the registry already resolves keeps the local instance.
func (n *Node) registerModels(state *checkpoint.FleetState) error {
	reg := n.hub.Registry()
	for key, clf := range state.Models {
		macs := state.ModelMACs[key]
		if _, _, err := reg.GetOrBuild(key, func() (models.Classifier, int64, error) {
			return clf, macs, nil
		}); err != nil {
			return fmt.Errorf("model %q: %w", key, err)
		}
	}
	return nil
}

// call performs one control exchange with a peer. buf is an optional reuse
// buffer for the ack payload (stream.ReadMsgBuf); loops over many peers pass
// one buffer across iterations and get the grown buffer back.
func (n *Node) call(addr string, verb byte, msg memberMsg, buf []byte) (*ackMsg, []byte, error) {
	return n.callTimeout(addr, verb, msg, buf, ioTimeout)
}

// callTimeout is call with an explicit exchange bound — heartbeats use a
// tight one so a dead peer costs pingTimeout, not a migration timeout.
func (n *Node) callTimeout(addr string, verb byte, msg memberMsg, buf []byte, timeout time.Duration) (*ackMsg, []byte, error) {
	conn, err := n.dial("tcp", addr, timeout)
	if err != nil {
		return nil, buf, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := conn.Write([]byte{verb}); err != nil {
		return nil, buf, err
	}
	if err := writeMemberMsg(conn, msg); err != nil {
		return nil, buf, err
	}
	ack, buf, err := readAck(conn, buf)
	if err != nil {
		return nil, buf, err
	}
	if ack.Err != "" {
		return nil, buf, fmt.Errorf("remote: %s", ack.Err)
	}
	return ack, buf, nil
}
