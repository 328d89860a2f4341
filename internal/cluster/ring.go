// Package cluster scales the serving fleet past one process: a
// consistent-hash ring routes sessions across N cogarmd nodes, a framed TCP
// transport (internal/stream message framing) carries membership changes and
// migrations between them, and live session migration streams session
// records node-to-node as sealed batches of internal/wal entries — a drained
// or joining node hands off sessions without retraining and with
// bitwise-identical subsequent predictions.
//
// # Architecture
//
//   - Ring (ring.go) is the placement substrate: each member is hashed onto
//     the ring at VNodes virtual points, and a session's routing key (its
//     serve Tag) is owned by the first member clockwise of the key's hash.
//     Membership changes move only the keys between the departed/arrived
//     member's points and their predecessors — ~1/N of sessions per change,
//     deterministically, with no coordination beyond agreeing on the member
//     list.
//
//   - Node (node.go) wraps one serve.Hub with a cluster endpoint: a TCP
//     listener answering join/announce/leave control messages and accepting
//     migration streams. When membership changes, each node re-derives
//     ownership for its live sessions from the ring and streams the ones it
//     no longer owns to their new owner, using Hub.ExtractSession (atomic
//     capture-and-remove) on the sending side and Hub.RestoreSession on the
//     receiving side.
//
//   - High availability (detector.go, replica.go, failover.go) keeps the
//     fleet serving through node death: each node tails its dirty-session
//     records to ring-successor standbys (the same records a journal flush
//     captures), heartbeats feed a phi/deadline failure detector,
//     and a member that stops answering is reaped from the ring with its
//     replica sessions promoted in place on the standby — bitwise-exact
//     continuation from the last replicated record.
//
// The package deliberately has no consensus layer: membership converges
// because the hash is deterministic and reaping is local — each node removes
// a dead member from its own ring view when its own detector fires, so a
// partitioned minority can diverge until the partition heals (documented in
// OPERATIONS.md). This matches the deployment shape of a serving fleet
// behind a provisioning system.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultVNodes is the virtual-node count per member. 64 points per member
// keeps the per-member load spread within a few percent for small fleets
// while membership changes stay cheap to compute.
const DefaultVNodes = 64

// ringPoint is one virtual node: a member's hash point on the ring.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes. The zero value is not
// usable; construct with NewRing. All methods are safe for concurrent use.
//
// Determinism is load-bearing: two nodes that agree on the member list agree
// on every key's owner without exchanging a single message, because both
// hash members and keys with the same FNV-1a function.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []ringPoint // sorted by hash
	nodes  map[string]struct{}
}

// NewRing creates an empty ring with the given virtual-node count per member
// (DefaultVNodes when vnodes <= 0).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, nodes: map[string]struct{}{}}
}

// hashKey maps a string onto the ring: FNV-1a for the byte mixing, then a
// murmur-style finalizer. The finalizer is load-bearing — raw FNV-1a of
// short keys with a shared prefix ("session:1", "session:2", …) differs only
// in the low bytes, which would pile every key onto one arc of the ring; the
// multiply-xor-shift cascade avalanches those differences across all 64 bits.
// Both steps are fixed constants, so every node computes identical positions.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a member. Adding an existing member is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hash: hashKey(node + "#" + strconv.Itoa(v)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member. Removing an unknown member is a no-op.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports membership.
func (r *Ring) Has(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.nodes[node]
	return ok
}

// Nodes returns the members in sorted order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Owner returns the member owning key — the first virtual node clockwise of
// the key's hash — or ok=false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].node, true
}

// Successors returns up to n distinct members clockwise of node's first
// virtual point, excluding node itself — the deterministic standby order for
// warm-standby replication. Every member that agrees on the ring computes
// the same successor list without coordination, which is what lets the
// survivors of a node death agree on who promotes its replicas.
func (r *Ring) Successors(node string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	h := hashKey(node + "#0")
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash > h })
	out := make([]string, 0, n)
	seen := map[string]struct{}{node: {}}
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}

// Shares returns each member's owned fraction of the hash space — the
// expected share of routing keys it serves. The arc ending at a virtual node
// belongs to that node's member; shares sum to 1 on a non-empty ring. This
// is the diagnostic surface for placement skew (/statusz renders it): with
// DefaultVNodes the spread stays within a few percent of 1/N.
func (r *Ring) Shares() map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return map[string]float64{}
	}
	shares := make(map[string]float64, len(r.nodes))
	const span = float64(1<<63) * 2 // 2^64 as float64
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		arc := p.hash - prev // wraps correctly in uint64 arithmetic
		shares[p.node] += float64(arc) / span
		prev = p.hash
	}
	return shares
}

// String renders the membership for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d members × %d vnodes)", r.Len(), r.vnodes)
}
