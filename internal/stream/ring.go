package stream

import "sync"

// Ring is a thread-safe FIFO holding at most capacity samples. When full,
// pushing overwrites the oldest element — matching acquisition-buffer
// semantics where stale EEG is worthless and the newest data must always flow.
//
// Its memory follows the backlog, not the capacity: the slots start at
// minSlots and double when a push finds them all taken, up to capacity, and
// never shrink, so a ring drained every tick stays small and its steady state
// allocates nothing. Every slot owns its Values buffer — Push copies the
// caller's values in and every read copies them out — so the ring never
// shares a slice with a producer or a consumer.
type Ring struct {
	mu       sync.Mutex
	buf      []Sample // the slots; each Values is the slot's own buffer
	capacity int
	head     int // index of the oldest element
	size     int
	dropped  uint64
	arena    []float64 // PopNInto's drain storage, reused call to call
	notify   chan struct{}
}

// minSlots is how many slots a ring starts with (fewer if its capacity is
// smaller): a serving tick drains about 8 samples per session.
const minSlots = 16

// NewRing creates a ring holding up to capacity samples. Capacity must be
// positive.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("stream: ring capacity must be positive")
	}
	return &Ring{
		buf:      make([]Sample, min(capacity, minSlots)),
		capacity: capacity,
		notify:   make(chan struct{}, 1),
	}
}

// grow returns s resliced to n elements when its capacity allows, otherwise
// a fresh zeroed slice of n; the caller rewrites whatever it reads.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Push appends a copy of s, overwriting the oldest sample if the ring holds
// capacity of them. It reports whether an old sample was overwritten. The
// ring keeps nothing of s.Values: the caller may reuse it at once.
func (r *Ring) Push(s Sample) (overwrote bool) {
	r.mu.Lock()
	if r.size == len(r.buf) && len(r.buf) < r.capacity {
		// Unroll the full ring into twice the slots; the new ones start
		// without a Values buffer and get one at their first push.
		slots := grow([]Sample(nil), min(2*len(r.buf), r.capacity))
		n := copy(slots, r.buf[r.head:])
		copy(slots[n:], r.buf[:r.head])
		r.buf, r.head = slots, 0
	}
	var slot *Sample
	if r.size == len(r.buf) {
		slot = &r.buf[r.head]
		r.head = (r.head + 1) % len(r.buf)
		r.dropped++
		overwrote = true
	} else {
		slot = &r.buf[(r.head+r.size)%len(r.buf)]
		r.size++
	}
	slot.Seq, slot.Timestamp = s.Seq, s.Timestamp
	slot.Values = grow(slot.Values, len(s.Values))
	copy(slot.Values, s.Values)
	r.mu.Unlock()
	select {
	case r.notify <- struct{}{}:
	default:
	}
	return overwrote
}

// PopN removes and returns up to max buffered samples, oldest first. max <= 0
// drains everything (like Drain). The samples own their Values.
func (r *Ring) PopN(max int) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.countLocked(max)
	out := r.copiesLocked(n)
	r.discardLocked(n)
	return out
}

// PopNInto is PopN appending into dst — the allocation-free bulk read of the
// serving hot path. A shard passes one per-shard buffer (reset to dst[:0]
// between sessions), and the values are copied into a drain arena the ring
// owns, so a warm drain costs no heap allocation.
//
// The returned samples' Values alias that arena (each cap-clipped to its own
// channels) and stay valid only until the next PopNInto on this ring — the
// serve.Source lifetime, which the shard honours by consuming them within
// the tick. PopNInto only appends to dst: it never writes into the Values of
// samples in dst's spare capacity, which may belong to another source.
func (r *Ring) PopNInto(dst []Sample, max int) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.countLocked(max)
	if n == 0 {
		return dst
	}
	if need := r.valuesLocked(n); cap(r.arena) < need {
		// Room for every slot at this drain's mean width, so the arena
		// grows about as often as the slots double.
		r.arena = grow(r.arena, need*len(r.buf)/n)
	}
	dst = r.copyLocked(dst, r.arena[:cap(r.arena)], n)
	r.discardLocked(n)
	return dst
}

// Snapshot returns a deep copy of the buffered samples, oldest first, without
// consuming them. It is the checkpoint path: a fleet snapshot must capture
// samples that arrived but have not been ticked through a session yet, while
// the producer keeps pushing and the shard keeps popping.
func (r *Ring) Snapshot() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.copiesLocked(r.size)
}

// Drain pops everything currently buffered, oldest first.
func (r *Ring) Drain() []Sample { return r.PopN(0) }

// countLocked is how many samples a pop of max takes.
func (r *Ring) countLocked(max int) int {
	if max > 0 && max < r.size {
		return max
	}
	return r.size
}

// valuesLocked sums the channel counts of the n oldest samples.
func (r *Ring) valuesLocked(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += len(r.buf[(r.head+i)%len(r.buf)].Values)
	}
	return total
}

// copyLocked appends the n oldest samples to dst with their values copied
// into vals, which must hold valuesLocked(n), each cap-clipped so no
// sample's Values reaches the next one's.
func (r *Ring) copyLocked(dst []Sample, vals []float64, n int) []Sample {
	for i := 0; i < n; i++ {
		s := r.buf[(r.head+i)%len(r.buf)]
		k := copy(vals, s.Values)
		s.Values, vals = vals[:k:k], vals[k:]
		dst = append(dst, s)
	}
	return dst
}

// copiesLocked returns owned copies of the n oldest samples, their values in
// one fresh block.
func (r *Ring) copiesLocked(n int) []Sample {
	return r.copyLocked(make([]Sample, 0, n), make([]float64, r.valuesLocked(n)), n)
}

// discardLocked pops the n oldest samples; their slots keep their buffers.
func (r *Ring) discardLocked(n int) {
	r.head = (r.head + n) % len(r.buf)
	r.size -= n
}

// Len returns the number of buffered samples.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// Dropped returns how many samples have been overwritten since creation.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Wait returns a channel that receives a token when new data may be
// available. It never blocks producers.
func (r *Ring) Wait() <-chan struct{} { return r.notify }

// arrivalRing records when recent samples arrived (inlet-clock seconds), one
// slot per sequence number modulo its capacity. An inlet sizes it to its
// sample ring, so it keeps a stamp for every sample the ring can still hold
// while its memory stays fixed however long the inlet runs. A seq whose slot
// a later one has taken reports no stamp.
type arrivalRing struct {
	mu    sync.Mutex
	slots []arrival
}

// arrival is one stamp. seq1 is the stamped seq plus one, so the zero value
// is an empty slot (and the one seq that would wrap to 0 is never stamped).
type arrival struct {
	seq1 uint64
	at   float64
}

func newArrivalRing(capacity int) *arrivalRing {
	return &arrivalRing{slots: make([]arrival, capacity)}
}

func (r *arrivalRing) record(seq uint64, at float64) {
	r.mu.Lock()
	r.slots[seq%uint64(len(r.slots))] = arrival{seq1: seq + 1, at: at}
	r.mu.Unlock()
}

func (r *arrivalRing) lookup(seq uint64) (float64, bool) {
	r.mu.Lock()
	a := r.slots[seq%uint64(len(r.slots))]
	r.mu.Unlock()
	return a.at, a.seq1 != 0 && a.seq1 == seq+1
}
