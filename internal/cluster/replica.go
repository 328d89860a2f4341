package cluster

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/models"
	"cognitivearm/internal/serve"
	"cognitivearm/internal/wal"
)

// Warm-standby replication. The sender half (Node.ReplicateOnce) captures
// the hub's dirty-session delta — the same capture a journal flush writes —
// into the link's reused arena and ships it to this node's ring successors as
// sealed batches of WAL entries (wal.StreamWriter) over long-lived
// verbReplicate connections. The receiver half (Node.handleReplicate) folds
// each verified batch into a replicaStore: an in-memory, always-promotable
// image of the primary's sessions, at most one replication interval stale,
// kept as the verified record bytes and decoded only at promotion. Promotion
// (failover.go) turns that image into live serving sessions via
// serve.Hub.PromoteSession.

// replicaSet is the replica image of one primary, as built by one tail.
type replicaSet struct {
	// fold holds the promotable sessions: every live session's latest
	// record as the bytes the primary shipped, verified as each batch was
	// applied, and the newest refs view. resolve decodes them.
	fold *checkpoint.Fold
	// base holds every model shipped so far, loaded (Fold.Apply adds them).
	base *checkpoint.FleetState
	// live is how many sessions the last applied view names.
	live int
	// lastRoot is the Merkle root of the last applied batch, as verified by
	// wal.StreamReader against the sender's seal. It makes the image's
	// provenance auditable at promotion time: the promoting node can state
	// exactly which verified batch its serving state descends from.
	lastRoot [wal.HashSize]byte
}

// resolve decodes the image for promotion: each live session's latest
// record, volatile scheduler fields overlaid, in ID order, plus every model.
func (rs *replicaSet) resolve() (*checkpoint.FleetState, error) {
	return rs.fold.Resolve(rs.base)
}

// replicaStore holds one replicaSet per primary replicating to this node.
// Its mutex guards map bookkeeping and the in-memory fold of a batch into an
// image: batches are read from the network and sessions are promoted strictly
// outside it (take removes the whole set first), so no network, disk, or hub
// call ever runs under it.
type replicaStore struct {
	mu  sync.Mutex
	set map[string]*replicaSet
}

func newReplicaStore() *replicaStore {
	return &replicaStore{set: map[string]*replicaSet{}}
}

// beginTail opens a fresh image for a primary opening a fresh replication
// connection and returns it as the tail's identity. Models carry over
// (immutable), sessions do not: the new tail's first batch is a full resync,
// and stale records must not outlive the connection that shipped them.
func (s *replicaStore) beginTail(src string) *replicaSet {
	rs := &replicaSet{fold: checkpoint.NewFold(), base: &checkpoint.FleetState{
		Models:    map[string]models.Classifier{},
		ModelMACs: map[string]int64{},
	}}
	s.mu.Lock()
	if old, ok := s.set[src]; ok {
		rs.base.Models, rs.base.ModelMACs = old.base.Models, old.base.ModelMACs
	}
	s.set[src] = rs
	s.mu.Unlock()
	return rs
}

// apply folds one verified batch into the image rs — which must still be
// src's open tail: a connection superseded by a newer one (or by a promotion)
// may not write over its successor's image — and returns the live session
// count. Fold.Apply runs every check a promotion's decode would, so a batch
// the image acks is one it can serve. On error the image keeps its last good
// batch and the caller tears the connection down, so the next one resyncs
// from scratch.
func (s *replicaStore) apply(src string, rs *replicaSet, entries []wal.Entry, root [wal.HashSize]byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.set[src] != rs {
		return 0, fmt.Errorf("cluster: replication batch from %s on a superseded tail", src)
	}
	live, err := rs.fold.Apply(entries, rs.base)
	if err != nil {
		return 0, fmt.Errorf("cluster: replica of %s out of sync: %w", src, err)
	}
	rs.live = live
	rs.lastRoot = root
	return live, nil
}

// take removes and returns src's image — the promotion handoff. Promotion
// happens on the returned copy outside the store lock.
func (s *replicaStore) take(src string) (*replicaSet, bool) {
	s.mu.Lock()
	rs, ok := s.set[src]
	delete(s.set, src)
	s.mu.Unlock()
	return rs, ok
}

// drop discards src's image (clean leave, or a reap another member handles).
func (s *replicaStore) drop(src string) {
	s.mu.Lock()
	delete(s.set, src)
	s.mu.Unlock()
}

// total counts replica session records across all primaries (gauge feed).
func (s *replicaStore) total() int {
	s.mu.Lock()
	n := 0
	for _, rs := range s.set {
		n += rs.live
	}
	s.mu.Unlock()
	return n
}

// sources lists the primaries with open images, sorted.
func (s *replicaStore) sources() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.set))
	for src := range s.set {
		out = append(out, src)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// replLink is one live replication tail to a standby.
type replLink struct {
	target   string
	conn     net.Conn
	sw       *wal.StreamWriter
	enc      checkpoint.DeltaEncoder // models shipped on this connection
	delta    serve.Delta             // the capture arena, reused batch after batch
	lastRefs map[uint64]checkpoint.SessionRef
	ackBuf   []byte
}

// Standbys returns this node's current replication targets: its ring
// successors, replicaN deep.
func (n *Node) Standbys() []string {
	if n.replicaN <= 0 {
		return nil
	}
	return n.ring.Successors(n.id, n.replicaN)
}

// ReplicateOnce ships one dirty-delta batch to every standby, opening or
// reopening tails as needed. It is the body of the replication loop. Links
// to members that are no longer standbys (membership changed) are torn down;
// a failed batch tears its link down and backs the target off, and a later
// call reconnects with a full resync. Returns the first error encountered;
// the other standbys are still attempted.
func (n *Node) ReplicateOnce() error {
	return n.ReplicateAt(time.Now())
}

// ReplicateAt is ReplicateOnce against an explicit clock — the deterministic
// drive for tests, and the only consumer of the dial-backoff schedule: a
// target still inside its backoff window at now is skipped (counted on
// cogarm_cluster_replication_backoff_skips_total), not dialed.
func (n *Node) ReplicateAt(now time.Time) error {
	if n.replicaN <= 0 {
		return nil
	}
	// replMu serializes replication sweeps and owns n.links; network writes
	// happen while it is held by design — it is the replication worker's
	// private state, never taken by the serving or membership paths.
	n.replMu.Lock()
	defer n.replMu.Unlock()
	targets := n.Standbys()
	want := make(map[string]struct{}, len(targets))
	for _, t := range targets {
		want[t] = struct{}{}
	}
	for id, link := range n.links {
		if _, still := want[id]; !still {
			//cogarm:allow nolockblock -- replMu is the sweep's private lock (see above); Close here cannot stall serving
			link.conn.Close()
			delete(n.links, id)
			n.backoff.forget(id)
		}
	}
	t := clusterTel()
	if len(targets) == 0 {
		// Singleton fleet: nothing to replicate to is not staleness — a
		// climbing lag gauge here would page on every one-node deployment.
		t.replLag.Set(0)
		return nil
	}
	var firstErr error
	allOK := len(targets) > 0
	for _, target := range targets {
		link, ok := n.links[target]
		if !ok {
			if !n.backoff.ready(target, now) {
				// Inside the backoff window: the standby is not consulted at
				// all this sweep. Skipping is not a fresh failure — the pause
				// only grows when an actual attempt fails.
				t.replBackoffSkips.Inc()
				allOK = false
				continue
			}
			var err error
			//cogarm:allow nolockblock -- dialing under replMu serializes sweeps by design; no serving path waits on it
			if link, err = n.linkTo(target); err != nil {
				pause := n.backoff.failure(target, now)
				t.replFails.Inc()
				allOK = false
				if firstErr == nil {
					firstErr = fmt.Errorf("cluster: replication tail to %s (retry in %v): %w", target, pause, err)
				}
				continue
			}
			n.links[target] = link
		}
		//cogarm:allow nolockblock -- shipping under replMu serializes sweeps by design; no serving path waits on it
		if err := n.shipBatch(link); err != nil {
			//cogarm:allow nolockblock -- tearing down the failed link, same private-lock argument
			link.conn.Close()
			delete(n.links, target)
			pause := n.backoff.failure(target, now)
			t.replFails.Inc()
			allOK = false
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: replication batch to %s (retry in %v): %w", target, pause, err)
			}
			continue
		}
		n.backoff.success(target)
	}
	if allOK {
		n.lastReplOK.Store(now.UnixNano())
		t.replLag.Set(0)
	} else if last := n.lastReplOK.Load(); last > 0 {
		t.replLag.Set(now.Sub(time.Unix(0, last)).Seconds())
	}
	return firstErr
}

// linkTo opens a replication tail to a standby: dial, verb, identity
// handshake. The handshake ack proves the standby recognises this node as a
// ring member before any state is shipped.
func (n *Node) linkTo(target string) (*replLink, error) {
	n.mu.Lock()
	addr, ok := n.peers[target]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("no address for member %s", target)
	}
	conn, err := n.dial("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*replLink, error) {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(ioTimeout))
	if _, err := conn.Write([]byte{verbReplicate}); err != nil {
		return fail(err)
	}
	if err := writeMemberMsg(conn, memberMsg{ID: n.id, Addr: n.Addr()}); err != nil {
		return fail(err)
	}
	ack, _, err := readAck(conn, nil)
	if err != nil {
		return fail(err)
	}
	if ack.Err != "" {
		return fail(fmt.Errorf("remote: %s", ack.Err))
	}
	return &replLink{target: target, conn: conn, sw: wal.NewStreamWriter(conn)}, nil
}

// shipBatch captures the dirty delta since the link's last acknowledged
// batch and writes it down the tail as one sealed batch, waiting for the
// standby's ack. Only an acknowledged batch advances lastRefs, so a batch the
// standby never applied is recaptured (as still-dirty sessions) by the next
// connection.
func (n *Node) shipBatch(link *replLink) error {
	delta := &link.delta
	n.hub.CaptureDeltaInto(link.lastRefs, delta)
	link.conn.SetDeadline(time.Now().Add(ioTimeout))
	if err := link.enc.AppendDelta(link.sw, &delta.Delta); err != nil {
		return err
	}
	if _, err := link.sw.Seal(); err != nil {
		return err
	}
	ack, buf, err := readAck(link.conn, link.ackBuf)
	link.ackBuf = buf
	if err != nil {
		return err
	}
	if ack.Err != "" {
		return fmt.Errorf("remote: %s", ack.Err)
	}
	link.lastRefs = delta.Manifest.RefIndexInto(link.lastRefs)
	t := clusterTel()
	t.replBatchesOut.Inc()
	t.replRecords.Add(uint64(delta.Records.Len()))
	return nil
}

// handleReplicate serves the receiving half of one replication tail: an
// identity handshake, then batches applied to the replica store until the
// connection closes. This is the one long-lived verb — the per-batch ack
// doubles as flow control, and every applied batch also counts as a
// heartbeat from the primary (a node that is replicating is alive).
func (n *Node) handleReplicate(conn net.Conn) {
	msg, _, err := readMemberMsg(conn, nil)
	if err != nil {
		writeAck(conn, ackMsg{Err: err.Error()})
		return
	}
	if !n.ring.Has(msg.ID) {
		writeAck(conn, ackMsg{Err: fmt.Sprintf("unknown member %s", msg.ID)})
		return
	}
	if err := writeAck(conn, ackMsg{}); err != nil {
		return
	}
	rs := n.replicas.beginTail(msg.ID)
	sr, err := wal.NewStreamReader(conn)
	if err != nil {
		n.logf("cluster: replication tail from %s: %v", msg.ID, err)
		return
	}
	t := clusterTel()
	for {
		conn.SetDeadline(time.Now().Add(ioTimeout))
		entries, root, err := sr.ReadBatch()
		if err != nil {
			if err != io.EOF {
				n.logf("cluster: replication tail from %s: %v", msg.ID, err)
			}
			return
		}
		live, err := n.replicas.apply(msg.ID, rs, entries, root)
		if err != nil {
			n.logf("cluster: replication tail from %s: %v", msg.ID, err)
			writeAck(conn, ackMsg{Err: err.Error()})
			return
		}
		n.det.Beat(msg.ID, time.Now())
		t.replBatchesIn.Inc()
		t.replicaSessions.Set(float64(n.replicas.total()))
		if err := writeAck(conn, ackMsg{Handled: live}); err != nil {
			return
		}
	}
}
