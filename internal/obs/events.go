package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// EventType names one lifecycle event class. Events are fixed-size structs —
// the type plus two generic int64 arguments whose meaning is per-type (see
// ArgNames) — so recording one never allocates.
type EventType uint8

const (
	evInvalid EventType = iota
	// EvAdmit: a session joined the fleet (Session, Shard).
	EvAdmit
	// EvRefuseFull: an admission was refused at the static capacity cap.
	EvRefuseFull
	// EvRefuseOverload: an admission was refused by p99 backpressure.
	EvRefuseOverload
	// EvEvict: a session left the fleet (Session, Shard).
	EvEvict
	// EvCheckpointFull: a checkpoint was written (bytes, dur_ns).
	EvCheckpointFull
	// evCheckpointIncremental is retired (every checkpoint is full) but keeps
	// its value and name: WAL audit entries persist EventType, and logs
	// written before the retirement still hold it.
	evCheckpointIncremental
	// EvCheckpointLoad: a checkpoint was loaded (sessions, 0).
	EvCheckpointLoad
	// EvMigrateIn: sessions arrived from a peer (sessions, 0).
	EvMigrateIn
	// EvMigrateOut: sessions were handed to a peer (sessions, 0).
	EvMigrateOut
	// EvJoin: this node joined a fleet (members, 0).
	EvJoin
	// EvLeave: a member left the ring (members, 0).
	EvLeave
	// EvDrain: this node drained its sessions away (members, 0).
	EvDrain
	// EvInletDrop: a network inlet discarded a malformed frame.
	EvInletDrop
	// EvReap: the failure detector removed an unresponsive member (members, 0).
	EvReap
	// EvFailover: replica sessions of a dead member were promoted to live
	// serving here (sessions, 0).
	EvFailover
	// EvWalTruncate: WAL recovery cut a torn tail back to the last sealed
	// batch boundary (bytes, entries dropped).
	EvWalTruncate
	evSentinel // keep last
)

var eventNames = [...]string{
	EvAdmit:                 "admit",
	EvRefuseFull:            "refuse_full",
	EvRefuseOverload:        "refuse_overload",
	EvEvict:                 "evict",
	EvCheckpointFull:        "checkpoint_full",
	evCheckpointIncremental: "checkpoint_incremental",
	EvCheckpointLoad:        "checkpoint_load",
	EvMigrateIn:             "migrate_in",
	EvMigrateOut:            "migrate_out",
	EvJoin:                  "join",
	EvLeave:                 "leave",
	EvDrain:                 "drain",
	EvInletDrop:             "inlet_drop",
	EvReap:                  "reap",
	EvFailover:              "failover",
	EvWalTruncate:           "wal_truncate",
}

// argNames maps each type's A/B arguments to JSON field names; an empty name
// omits the argument from rendered events.
var argNames = [...][2]string{
	EvCheckpointFull:        {"bytes", "dur_ns"},
	evCheckpointIncremental: {"bytes", "dur_ns"},
	EvCheckpointLoad:        {"sessions", ""},
	EvMigrateIn:             {"sessions", ""},
	EvMigrateOut:            {"sessions", ""},
	EvJoin:                  {"members", ""},
	EvLeave:                 {"members", ""},
	EvDrain:                 {"members", ""},
	EvReap:                  {"members", ""},
	EvFailover:              {"sessions", ""},
	EvWalTruncate:           {"bytes", "entries"},
	evSentinel:              {},
}

// String returns the stable wire name of the event type.
func (t EventType) String() string {
	if int(t) < len(eventNames) && eventNames[t] != "" {
		return eventNames[t]
	}
	return "unknown"
}

// ArgNames returns the JSON field names of the type's A and B arguments
// (empty string = argument unused).
func (t EventType) ArgNames() (a, b string) {
	if int(t) < len(argNames) {
		return argNames[t][0], argNames[t][1]
	}
	return "", ""
}

// Event is one recorded lifecycle event. Shard is -1 when not applicable;
// Session is 0 when not applicable. A and B are per-type arguments (see the
// EventType constants).
type Event struct {
	Seq     uint64
	Time    int64 // unix nanoseconds
	Type    EventType
	Shard   int32
	Session uint64
	A, B    int64
}

// Default ring geometry: 1024 retained events across 8 stripes keeps the
// stripe mutexes effectively uncontended at any realistic event rate while
// bounding the ring to ~64 KB.
const (
	DefaultEventCapacity = 1024
	DefaultEventStripes  = 8
)

// eventStripe is one independently locked segment of the ring.
type eventStripe struct {
	mu  sync.Mutex
	buf []Event
	n   uint64 // events ever written to this stripe
}

// EventRing is a bounded, lock-striped ring of lifecycle events. Record
// distributes writers across stripes by a global sequence counter, so
// concurrent recorders rarely share a mutex; when a stripe wraps, its oldest
// event is overwritten and counted in Overwritten — bounded loss, never a
// blocked writer and never growth. A nil handle is a no-op sink: Record on a
// nil *EventRing returns at once.
type EventRing struct {
	stripes     []eventStripe
	seq         atomic.Uint64
	overwritten atomic.Uint64
}

// NewEventRing builds a ring retaining up to capacity events across the
// given number of stripes (both floored to sane minimums).
func NewEventRing(capacity, stripes int) *EventRing {
	if stripes < 1 {
		stripes = 1
	}
	if capacity < stripes {
		capacity = stripes
	}
	per := (capacity + stripes - 1) / stripes
	r := &EventRing{stripes: make([]eventStripe, stripes)}
	for i := range r.stripes {
		r.stripes[i].buf = make([]Event, per)
	}
	return r
}

// Record appends one event. It is safe for concurrent use and performs no
// heap allocations; cost is one atomic add plus one uncontended (striped)
// mutex acquisition.
func (r *EventRing) Record(t EventType, shard int, session uint64, a, b int64) {
	if r == nil {
		return
	}
	seq := r.seq.Add(1)
	st := &r.stripes[seq%uint64(len(r.stripes))]
	now := time.Now().UnixNano()
	st.mu.Lock()
	slot := &st.buf[st.n%uint64(len(st.buf))]
	if st.n >= uint64(len(st.buf)) {
		r.overwritten.Add(1)
	}
	st.n++
	slot.Seq = seq
	slot.Time = now
	slot.Type = t
	slot.Shard = int32(shard)
	slot.Session = session
	slot.A = a
	slot.B = b
	st.mu.Unlock()
}

// Recorded returns how many events have ever been recorded.
func (r *EventRing) Recorded() uint64 { return r.seq.Load() }

// Overwritten returns how many events have been lost to ring wrap — the
// bounded-loss accounting a scraper reads next to the events themselves.
func (r *EventRing) Overwritten() uint64 { return r.overwritten.Load() }

// Snapshot appends every retained event to dst in ascending Seq order and
// returns it. The copy is per-stripe consistent; events recorded while the
// snapshot walks other stripes may or may not appear, exactly like any
// monitoring read of a live system.
func (r *EventRing) Snapshot(dst []Event) []Event {
	start := len(dst)
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		n := st.n
		if n > uint64(len(st.buf)) {
			n = uint64(len(st.buf))
		}
		for j := uint64(0); j < n; j++ {
			dst = append(dst, st.buf[j])
		}
		st.mu.Unlock()
	}
	tail := dst[start:]
	sort.Slice(tail, func(i, j int) bool { return tail[i].Seq < tail[j].Seq })
	return dst
}
