package stream

import "sync"

// Ring is a fixed-capacity thread-safe FIFO of samples. When full, pushing
// overwrites the oldest element — matching acquisition-buffer semantics where
// stale EEG is worthless and the newest data must always flow.
type Ring struct {
	mu      sync.Mutex
	buf     []Sample
	head    int // index of the oldest element
	size    int
	dropped uint64
	notify  chan struct{}
}

// NewRing creates a ring holding up to capacity samples. Capacity must be
// positive.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("stream: ring capacity must be positive")
	}
	return &Ring{buf: make([]Sample, capacity), notify: make(chan struct{}, 1)}
}

// Push appends a sample, overwriting the oldest if full. It reports whether
// an old sample was overwritten.
//
//cogarm:zeroalloc
func (r *Ring) Push(s Sample) (overwrote bool) {
	r.mu.Lock()
	if r.size == len(r.buf) {
		r.buf[r.head] = s
		r.head = (r.head + 1) % len(r.buf)
		r.dropped++
		overwrote = true
	} else {
		r.buf[(r.head+r.size)%len(r.buf)] = s
		r.size++
	}
	r.mu.Unlock()
	select {
	case r.notify <- struct{}{}:
	default:
	}
	return overwrote
}

// Pop removes and returns the oldest sample, or ok=false when empty.
func (r *Ring) Pop() (s Sample, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.size == 0 {
		return Sample{}, false
	}
	s = r.buf[r.head]
	r.buf[r.head] = Sample{} // a consumed slot must not keep its Values alive
	r.head = (r.head + 1) % len(r.buf)
	r.size--
	return s, true
}

// PopN removes and returns up to max buffered samples, oldest first. max <= 0
// drains everything (like Drain). It is the bulk-read used by serving
// sessions fed from network inlets.
func (r *Ring) PopN(max int) []Sample {
	r.mu.Lock()
	n := r.size
	if max > 0 && max < n {
		n = max
	}
	r.mu.Unlock()
	return r.PopNInto(make([]Sample, 0, n), max)
}

// PopNInto is PopN appending into dst — the allocation-free bulk read of the
// serving hot path: a shard passes one per-shard buffer (reset to dst[:0]
// between sessions) so draining a ring costs no heap allocations. The
// returned slice aliases dst's backing array when capacity suffices.
//
//cogarm:zeroalloc
func (r *Ring) PopNInto(dst []Sample, max int) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.size
	if max > 0 && max < n {
		n = max
	}
	for i := 0; i < n; i++ {
		dst = append(dst, r.buf[r.head])
		r.buf[r.head] = Sample{}
		r.head = (r.head + 1) % len(r.buf)
		r.size--
	}
	return dst
}

// Snapshot returns a deep copy of the buffered samples, oldest first, without
// consuming them. It is the checkpoint path: a fleet snapshot must capture
// samples that arrived but have not been ticked through a session yet, while
// the producer keeps pushing and the shard keeps popping.
func (r *Ring) Snapshot() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, r.size)
	for i := 0; i < r.size; i++ {
		s := r.buf[(r.head+i)%len(r.buf)]
		s.Values = append([]float64(nil), s.Values...)
		out = append(out, s)
	}
	return out
}

// Len returns the number of buffered samples.
//
//cogarm:zeroalloc
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

// Drain pops everything currently buffered, oldest first.
func (r *Ring) Drain() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, r.size)
	for r.size > 0 {
		out = append(out, r.buf[r.head])
		r.buf[r.head] = Sample{}
		r.head = (r.head + 1) % len(r.buf)
		r.size--
	}
	return out
}

// arrivalRing records when recent samples arrived (inlet-clock seconds), one
// slot per sequence number modulo its capacity. An inlet sizes it to its
// sample ring, so it keeps a stamp for every sample the ring can still hold
// while its memory stays fixed however long the inlet runs. A seq whose slot
// a later one has taken reports no stamp.
type arrivalRing struct {
	mu    sync.Mutex
	slots []arrival
}

type arrival struct {
	seq uint64
	at  float64
	set bool
}

func newArrivalRing(capacity int) *arrivalRing {
	return &arrivalRing{slots: make([]arrival, capacity)}
}

func (r *arrivalRing) record(seq uint64, at float64) {
	r.mu.Lock()
	r.slots[seq%uint64(len(r.slots))] = arrival{seq: seq, at: at, set: true}
	r.mu.Unlock()
}

func (r *arrivalRing) lookup(seq uint64) (float64, bool) {
	r.mu.Lock()
	a := r.slots[seq%uint64(len(r.slots))]
	r.mu.Unlock()
	return a.at, a.set && a.seq == seq
}
