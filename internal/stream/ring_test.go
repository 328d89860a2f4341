package stream

import (
	"reflect"
	"testing"
	"time"
)

// TestRingSnapshotDoesNotConsume: Snapshot must return the buffered samples
// oldest-first, leave the ring untouched, and deep-copy values so later
// producer writes cannot mutate a checkpoint in flight.
func TestRingSnapshotDoesNotConsume(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ { // wraps: 2 oldest overwritten
		r.Push(Sample{Seq: uint64(i), Values: []float64{float64(i)}})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d samples, want 4", len(snap))
	}
	for i, s := range snap {
		if want := uint64(i + 2); s.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (oldest-first after wrap)", i, s.Seq, want)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("snapshot consumed the ring: %d left, want 4", r.Len())
	}
	// Deep copy: mutating the snapshot must not reach the ring.
	snap[0].Values[0] = -999
	popped := r.PopN(1)
	if popped[0].Values[0] == -999 {
		t.Fatal("snapshot aliases ring sample values")
	}
	// And the ring drains in the same order the snapshot reported.
	rest := r.Drain()
	var seqs []uint64
	for _, s := range append(popped[:1:1], rest...) {
		seqs = append(seqs, s.Seq)
	}
	if !reflect.DeepEqual(seqs, []uint64{2, 3, 4, 5}) {
		t.Fatalf("drain order %v", seqs)
	}
}

func TestRingSnapshotEmpty(t *testing.T) {
	if got := NewRing(3).Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
}

// TestRingReleasesConsumedSlots: every way of consuming a sample clears its
// slot, so the ring keeps no Values alive past their consumer.
func TestRingReleasesConsumedSlots(t *testing.T) {
	for name, consume := range map[string]func(*Ring){
		"Pop":      func(r *Ring) { r.Pop(); r.Pop() },
		"PopNInto": func(r *Ring) { r.PopNInto(nil, 2) },
		"PopN":     func(r *Ring) { r.PopN(2) },
		"Drain":    func(r *Ring) { r.Drain() },
	} {
		r := NewRing(4)
		for i := 0; i < 5; i++ { // wraps once
			r.Push(Sample{Seq: uint64(i), Values: []float64{float64(i)}})
		}
		consume(r)
		for i, s := range r.buf {
			if s.Values != nil && !r.holds(i) {
				t.Fatalf("%s: consumed slot %d still holds seq %d's values", name, i, s.Seq)
			}
		}
	}
}

// holds reports whether slot i of the ring's buffer is occupied.
func (r *Ring) holds(i int) bool {
	return (i-r.head+len(r.buf))%len(r.buf) < r.size
}

// TestArrivalRing: the stamps of the most recent capacity seqs are kept,
// older ones report none, and recording allocates nothing however many seqs
// go through.
func TestArrivalRing(t *testing.T) {
	const capacity = 8
	r := newArrivalRing(capacity)
	if _, ok := r.lookup(0); ok {
		t.Fatal("an empty ring reports a stamp for seq 0")
	}
	for seq := uint64(0); seq < 3*capacity; seq++ {
		r.record(seq, float64(seq)/10)
	}
	for seq := uint64(0); seq < 3*capacity; seq++ {
		at, ok := r.lookup(seq)
		if recent := seq >= 2*capacity; ok != recent || (ok && at != float64(seq)/10) {
			t.Fatalf("seq %d: stamp (%v, %v), want present=%v", seq, at, ok, recent)
		}
	}
	seq := uint64(3 * capacity)
	if allocs := testing.AllocsPerRun(100, func() { r.record(seq, 1); seq++ }); allocs != 0 {
		t.Fatalf("record allocates %.0f times per seq, want 0", allocs)
	}
}

// TestInletArrivalStampsBounded: an inlet fed three times its ring capacity
// keeps one stamp slot per ring slot. Over the reliable LSL stream exactly
// the newest capacity seqs have stamps; over UDP every sample still in the
// ring has its stamp and the first seq's has been reused.
func TestInletArrivalStampsBounded(t *testing.T) {
	const capacity = 16
	await := func(t *testing.T, r *Ring) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for (r.Len() < capacity || r.Dropped() < 2*capacity) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Run("lsl", func(t *testing.T) {
		out, err := NewLSLOutlet(NewVirtualClock(0, 0), LinkConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		in, err := NewLSLInlet(out.Addr(), NewVirtualClock(0, 0), capacity, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		if err := out.WaitReady(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3*capacity; i++ {
			out.Push([]float64{float64(i)})
		}
		await(t, in.Ring)
		if n := len(in.arrivals.slots); n != capacity {
			t.Fatalf("%d stamp slots, want %d", n, capacity)
		}
		for seq := uint64(0); seq < 3*capacity; seq++ {
			if _, ok := in.ArrivalTime(seq); ok != (seq >= 2*capacity) {
				t.Fatalf("seq %d: stamp present=%v after %d samples through a %d-sample ring", seq, ok, 3*capacity, capacity)
			}
		}
	})
	t.Run("udp", func(t *testing.T) {
		in, err := NewUDPInlet(NewVirtualClock(0, 0), capacity)
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		out, err := NewUDPOutlet(in.Addr(), NewVirtualClock(0, 0), LinkConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3*capacity; i++ {
			out.Push([]float64{float64(i)})
			time.Sleep(200 * time.Microsecond)
		}
		out.Close()
		await(t, in.Ring)
		if n := len(in.arrivals.slots); n != capacity {
			t.Fatalf("%d stamp slots, want %d", n, capacity)
		}
		held := in.Ring.Drain()
		if len(held) == 0 {
			t.Fatal("no sample arrived")
		}
		for _, s := range held {
			if _, ok := in.ArrivalTime(s.Seq); !ok {
				t.Fatalf("seq %d is in the ring but has no stamp", s.Seq)
			}
		}
		if _, ok := in.ArrivalTime(0); ok {
			t.Fatal("seq 0 still has a stamp after three ring capacities")
		}
	})
}
