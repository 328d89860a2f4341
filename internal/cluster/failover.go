package cluster

import (
	"fmt"
	"net"
	"sort"
	"time"

	"cognitivearm/internal/obs"
	"cognitivearm/internal/serve"
)

// Failure detection and failover. Each node pings every peer on a fixed
// interval; answered pings (and received ones, and applied replication
// batches) feed the phi/deadline detector. When a peer's silence crosses the
// threshold, the survivor reaps it: removes it from its ring view, and — if
// it is the dead member's first live ring successor — promotes its replica
// sessions into live serving. Because the ring and the successor order are
// deterministic, every survivor reaches the same conclusion about who
// promotes without exchanging a message.
//
// There is no consensus round: a symmetric partition makes both sides reap
// each other and the minority side serves stale ownership until the
// partition heals and the operator re-joins it (OPERATIONS.md covers the
// runbook). That trade matches the package's design stance — deterministic
// local decisions over a coordination layer.

// pingTimeout bounds one heartbeat exchange. Far below ioTimeout: a
// heartbeat that cannot complete in 2 s is evidence of failure, and the
// detector should see the miss this interval, not one migration-timeout
// later.
const pingTimeout = 2 * time.Second

// DefaultHeartbeatEvery is the ping interval cogarmd uses; DefaultReplicateEvery
// is its replication interval — the staleness bound a promoted session can
// lose relative to its primary.
const (
	DefaultHeartbeatEvery = 500 * time.Millisecond
	DefaultReplicateEvery = time.Second
)

// SendHeartbeats pings every peer once, recording answered pings as beats
// and counting outcomes. It is the body of the heartbeat loop and the manual
// drive of deterministic tests.
func (n *Node) SendHeartbeats() {
	n.mu.Lock()
	peers := make(map[string]string, len(n.peers))
	for id, addr := range n.peers {
		peers[id] = addr
	}
	n.mu.Unlock()
	ids := make([]string, 0, len(peers))
	for id := range peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	t := clusterTel()
	var ackBuf []byte
	for _, id := range ids {
		var err error
		if _, ackBuf, err = n.callTimeout(peers[id], verbPing, memberMsg{ID: n.id, Addr: n.Addr()}, ackBuf, pingTimeout); err != nil {
			t.hbFail.Inc()
			continue
		}
		n.det.Beat(id, time.Now())
		t.hbOK.Inc()
	}
}

// DetectFailures reaps every member the detector declares dead as of now and
// returns their IDs. The clock is an argument so tests assert "after two
// silent seconds this member is reaped" by passing a future instant instead
// of sleeping through one.
func (n *Node) DetectFailures(now time.Time) []string {
	var reaped []string
	for _, id := range n.det.Suspects(now) {
		if id == n.id || !n.ring.Has(id) {
			n.det.Forget(id)
			continue
		}
		n.reapPeer(id)
		reaped = append(reaped, id)
	}
	return reaped
}

// reapPeer removes a dead member from the ring and, when this node is its
// first live ring successor, promotes its replica sessions. The successor
// list is computed before the removal — it is the dead member's standby
// order, which only exists while it is on the ring.
func (n *Node) reapPeer(dead string) {
	want := n.replicaN
	if want < 1 {
		want = 1
	}
	succs := n.ring.Successors(dead, want)
	n.det.Forget(dead)
	n.removeMember(dead)
	t := clusterTel()
	t.reaps.Inc()
	t.events.Record(obs.EvReap, -1, 0, int64(n.ring.Len()), 0)
	n.logf("cluster: %s reaped unresponsive member %s (%d members remain)", n.id, dead, n.ring.Len())
	chosen := ""
	for _, s := range succs {
		if s == n.id || n.ring.Has(s) {
			chosen = s
			break
		}
	}
	if chosen != n.id {
		// Another survivor promotes; any image this node holds (deeper
		// standby, or a ghost's stale replica) is dead weight now.
		n.replicas.drop(dead)
		t.replicaSessions.Set(float64(n.replicas.total()))
		return
	}
	if promoted := n.promote(dead); promoted > 0 {
		// Promotion lands every session locally first — bitwise continuation
		// beats placement. On a ≥3-member ring some of those keys now route
		// elsewhere; hand them off through the ordinary migration path.
		if err := n.rebalance(); err != nil {
			n.logf("cluster: rebalance after failover of %s: %v", dead, err)
		}
	}
}

// promote turns the dead member's replica image into live serving sessions.
// Records whose Tag is already live locally are skipped: a session that
// migrated here (drain) after its record was replicated would otherwise be
// resurrected as a stale duplicate. Individual failures drop that session
// and continue — a partially promoted fleet beats none.
func (n *Node) promote(dead string) int {
	set, ok := n.replicas.take(dead)
	t := clusterTel()
	t.replicaSessions.Set(float64(n.replicas.total()))
	if !ok || set.live == 0 {
		return 0
	}
	image, err := set.resolve()
	if err != nil {
		n.logf("cluster: failover of %s: %v", dead, err)
		return 0
	}
	if err := n.registerModels(image); err != nil {
		n.logf("cluster: failover of %s: %v", dead, err)
		return 0
	}
	live := map[string]struct{}{}
	for _, tag := range n.hub.SessionKeys() {
		if tag != "" {
			live[tag] = struct{}{}
		}
	}
	promoted := 0
	for i := range image.Sessions { // the fold keeps them in ID order
		rec := &image.Sessions[i]
		id := rec.ID
		if _, dup := live[rec.Tag]; dup && rec.Tag != "" {
			n.logf("cluster: failover of %s: session %d (%s) already live here, replica skipped", dead, id, rec.Tag)
			continue
		}
		src, err := n.rebind(serve.RestoredSession{
			ID:           serve.SessionID(rec.ID),
			ModelKey:     rec.ModelKey,
			Tag:          rec.Tag,
			Channels:     rec.Channels,
			SampleRateHz: rec.SampleRateHz,
		})
		if err != nil || src == nil {
			n.logf("cluster: failover of %s: session %d lost (rebind: %v)", dead, id, err)
			continue
		}
		if _, err := n.hub.PromoteSession(rec, src); err != nil {
			n.logf("cluster: failover of %s: session %d lost (promote: %v)", dead, id, err)
			continue
		}
		promoted++
	}
	t.failovers.Inc()
	t.promoted.Add(uint64(promoted))
	t.events.Record(obs.EvFailover, -1, 0, int64(promoted), 0)
	n.logf("cluster: %s promoted %d replica sessions of %s", n.id, promoted, dead)
	return promoted
}

// LocateResult is the redirect protocol's answer: which member owns a key,
// where its cluster endpoint is, and — when the owner has a live session for
// the key with a routable ingest socket — the address a streamer should send
// samples to.
type LocateResult struct {
	Owner string
	Addr  string
	// SourceAddr is the owning session's ingest address (e.g. its UDP
	// inlet); empty when the session is not live yet or its source has no
	// socket.
	SourceAddr string
}

// Locate asks the cluster member at addr which node owns key, following at
// most one redirect hop to the owner itself. This is the client half of the
// re-homing protocol: a streamer whose node died asks any survivor and gets
// back the promoted session's new ingest address.
func Locate(addr, key string) (LocateResult, error) {
	res, err := locateAt(addr, key)
	if err != nil {
		return res, err
	}
	if res.SourceAddr != "" || res.Addr == "" || res.Addr == addr {
		return res, nil
	}
	// The queried member is not the owner: one hop to the owner's own view,
	// which can also report the session's ingest address.
	return locateAt(res.Addr, key)
}

// locateAt performs one locate exchange.
func locateAt(addr, key string) (LocateResult, error) {
	conn, err := net.DialTimeout("tcp", addr, pingTimeout)
	if err != nil {
		return LocateResult{}, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(pingTimeout))
	if _, err := conn.Write([]byte{verbLocate}); err != nil {
		return LocateResult{}, err
	}
	if err := writeLocateMsg(conn, locateMsg{Key: key}); err != nil {
		return LocateResult{}, err
	}
	ack, _, err := readAck(conn, nil)
	if err != nil {
		return LocateResult{}, err
	}
	if ack.Err != "" {
		return LocateResult{}, fmt.Errorf("cluster: locate %q at %s: %s", key, addr, ack.Err)
	}
	return LocateResult{Owner: ack.Owner, Addr: ack.OwnerAddr, SourceAddr: ack.Source}, nil
}
