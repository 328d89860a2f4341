package stream

import (
	"math"
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

// popOne is PopN(1) as a single sample: the oldest, or ok=false when empty.
func popOne(r *Ring) (Sample, bool) {
	out := r.PopN(1)
	if len(out) == 0 {
		return Sample{}, false
	}
	return out[0], true
}

// TestRingReleasesConsumedSlots: the ring shares no Values slice with its
// callers. Mutating a slice after pushing it, or a sample's values after any
// read hands them out, changes nothing the ring later returns.
func TestRingReleasesConsumedSlots(t *testing.T) {
	for name, consume := range map[string]func(*Ring) []Sample{
		"PopN(1)":  func(r *Ring) []Sample { return append(r.PopN(1), r.PopN(1)...) },
		"PopNInto": func(r *Ring) []Sample { return r.PopNInto(nil, 2) },
		"PopN":     func(r *Ring) []Sample { return r.PopN(2) },
		"Snapshot": func(r *Ring) []Sample { return r.Snapshot() },
	} {
		r := NewRing(4)
		vals := []float64{0, 0}
		for i := 0; i < 5; i++ { // wraps once
			vals[0], vals[1] = float64(i), float64(-i)
			r.Push(Sample{Seq: uint64(i), Values: vals})
		}
		vals[0], vals[1] = -999, -999
		for _, s := range consume(r) {
			for j := range s.Values {
				s.Values[j] = -999
			}
		}
		r.Push(Sample{Seq: 5, Values: []float64{5, -5}})
		for _, s := range r.Drain() {
			if len(s.Values) != 2 || s.Values[0] != float64(s.Seq) || s.Values[1] != -float64(s.Seq) {
				t.Fatalf("%s: seq %d came back as %v", name, s.Seq, s.Values)
			}
		}
	}
}

// TestRingGrowsOnDemand: a ring starts at minSlots and doubles only when a
// backlog builds; FIFO order, overwrite-oldest and Dropped are those of a
// ring allocated at capacity from the start, whatever the capacity.
func TestRingGrowsOnDemand(t *testing.T) {
	r := NewRing(4096)
	var buf []Sample
	for i := 0; i < 1000; i++ {
		for j := 0; j < 8; j++ {
			r.Push(Sample{Seq: uint64(8*i + j), Values: make([]float64, 16)})
		}
		buf = r.PopNInto(buf[:0], 8)
	}
	if n := len(r.buf); n > minSlots {
		t.Fatalf("a ring drained every 8 samples holds %d slots, want <= %d", n, minSlots)
	}
	for i := 0; i < 100; i++ {
		r.Push(Sample{Seq: uint64(i), Values: make([]float64, 16)})
	}
	if n := len(r.buf); n != 128 {
		t.Fatalf("a 100-sample backlog holds %d slots, want 128", n)
	}

	for _, capacity := range []int{1, 3, 16, 17, 100} {
		r := NewRing(capacity)
		var model []uint64
		var seq, dropped uint64
		// Bursts longer than the drains build a backlog that wraps and
		// doubles the slots until the ring overwrites at capacity; the
		// first round's drain moves the head off slot 0 before any growth.
		for round := 0; round < 60; round++ {
			burst, drain := 1+round%7, round%4
			if round == 0 {
				burst, drain = 5, 5
			}
			for j := 0; j < burst; j++ {
				full := len(model) == capacity
				if overwrote := r.Push(Sample{Seq: seq, Values: []float64{float64(seq)}}); overwrote != full {
					t.Fatalf("cap %d: Push reported overwrote=%v with %d buffered", capacity, overwrote, len(model))
				}
				model = append(model, seq)
				seq++
				if full {
					model = model[1:]
					dropped++
				}
			}
			for i := 0; i < drain; i++ { // one sample at a time: PopN(0) would drain all
				s, ok := popOne(r)
				if !ok {
					break
				}
				if s.Seq != model[0] || s.Values[0] != float64(s.Seq) {
					t.Fatalf("cap %d: popped seq %d (%v), want %d", capacity, s.Seq, s.Values, model[0])
				}
				model = model[1:]
			}
			if r.Len() != len(model) || r.Dropped() != dropped || len(r.buf) > capacity {
				t.Fatalf("cap %d: len %d dropped %d slots %d, want %d, %d, <= %d",
					capacity, r.Len(), r.Dropped(), len(r.buf), len(model), dropped, capacity)
			}
		}
	}

	// At capacity a push overwrites the oldest, exactly as before.
	r = NewRing(20)
	for i := 0; i < 45; i++ {
		if overwrote := r.Push(Sample{Seq: uint64(i)}); overwrote != (i >= 20) {
			t.Fatalf("push %d: overwrote = %v", i, overwrote)
		}
	}
	got := r.Drain()
	if r.Dropped() != 25 || len(got) != 20 || got[0].Seq != 25 || got[19].Seq != 44 {
		t.Fatalf("dropped %d, drained %d samples from seq %d", r.Dropped(), len(got), got[0].Seq)
	}
}

// TestPopNIntoLeavesDstAlone: the shard's sample buffer can hold, past its
// length, samples another source handed it — a scripted source's own
// slices. PopNInto appends and must leave both those and dst's live prefix
// untouched.
func TestPopNIntoLeavesDstAlone(t *testing.T) {
	script := []Sample{
		{Seq: 100, Values: []float64{1, 2}},
		{Seq: 101, Values: []float64{3, 4}},
		{Seq: 102, Values: []float64{5, 6}},
	}
	dst := append([]Sample(nil), script...)
	r := NewRing(8)
	for i := 0; i < 3; i++ {
		r.Push(Sample{Seq: uint64(i), Values: []float64{-1, -1}})
	}
	dst = r.PopNInto(dst[:1], 0)
	if len(dst) != 4 || dst[0].Seq != 100 || dst[1].Seq != 0 || dst[3].Seq != 2 {
		t.Fatalf("PopNInto returned %+v", dst)
	}
	for i, s := range script {
		if s.Values[0] != float64(2*i+1) || s.Values[1] != float64(2*i+2) {
			t.Fatalf("script sample %d overwritten: %v", s.Seq, s.Values)
		}
	}
}

// TestRingWarmPathAllocFree: once the slots and the drain arena have grown
// to the tick's rhythm, pushing and draining allocate nothing, and neither
// does decoding a datagram into a reused Sample.
func TestRingWarmPathAllocFree(t *testing.T) {
	r := NewRing(4096)
	vals := make([]float64, 16)
	var buf []Sample
	round := func() {
		for j := 0; j < 8; j++ {
			r.Push(Sample{Seq: uint64(j), Values: vals})
		}
		buf = r.PopNInto(buf[:0], 8)
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("warm Push+PopNInto allocates %.1f times per round, want 0", allocs)
	}

	frame, _ := (&Sample{Seq: 9, Timestamp: 1.5, Values: vals}).MarshalBinary()
	var s Sample
	if !parseDatagramInto(frame, &s) {
		t.Fatal("valid datagram refused")
	}
	if allocs := testing.AllocsPerRun(100, func() { parseDatagramInto(frame, &s) }); allocs != 0 {
		t.Fatalf("parseDatagramInto allocates %.1f times per datagram, want 0", allocs)
	}
}

// TestRingLenAndClockAllocFree: the backlog probe a tick reads per buffered
// session, and the virtual clock a stream stamps samples with, allocate nothing.
func TestRingLenAndClockAllocFree(t *testing.T) {
	r := NewRing(64)
	r.Push(Sample{Values: make([]float64, 4)})
	c := NewVirtualClock(0.5, 20e-6)
	var n int
	var now float64
	if allocs := testing.AllocsPerRun(100, func() { n = r.Len(); now = c.Now() }); allocs != 0 {
		t.Fatalf("Ring.Len + VirtualClock.Now allocate %.1f times per call, want 0", allocs)
	}
	if n != 1 || now < 0.5 {
		t.Fatalf("Len %d, Now %v", n, now)
	}
}

// FuzzRingOps drives a ring with a random sequence of pushes and reads and
// checks every result against a plain slice FIFO: the same samples, values
// and counts, and no panic. The first byte picks the capacity, so small and
// growing rings both overwrite. The values of every read but PopNInto are
// scribbled on before the next operation, so any slice the ring shared would
// show; PopNInto's must instead stay intact until the next PopNInto.
func FuzzRingOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := 1 + int(ops[0])%70
		r := NewRing(capacity)
		var model []Sample
		var seq, dropped uint64
		var dst, held, heldWant []Sample
		same := func(op string, got []Sample, want []Sample) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %d samples, want %d", op, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Seq != w.Seq || g.Timestamp != w.Timestamp || len(g.Values) != len(w.Values) {
					t.Fatalf("%s: sample %d is %+v, want %+v", op, i, g, w)
				}
				for j := range g.Values {
					if g.Values[j] != w.Values[j] {
						t.Fatalf("%s: sample %d values %v, want %v", op, i, g.Values, w.Values)
					}
				}
			}
		}
		check := func(op string, got []Sample, want []Sample) {
			t.Helper()
			same(op, got, want)
			for _, s := range got {
				for j := range s.Values {
					s.Values[j] = -1
				}
			}
		}
		take := func(max int) []Sample {
			n := len(model)
			if max > 0 && max < n {
				n = max
			}
			out := model[:n:n]
			model = model[n:]
			return out
		}
		for _, b := range ops[1:] {
			same("held popNInto", held, heldWant)
			arg := int(b / 6)
			switch b % 6 {
			case 0:
				vals := make([]float64, arg%5)
				for j := range vals {
					vals[j] = float64(seq)*8 + float64(j)
				}
				s := Sample{Seq: seq, Timestamp: float64(seq) / 2, Values: vals}
				seq++
				overwrote := r.Push(s)
				model = append(model, Sample{Seq: s.Seq, Timestamp: s.Timestamp, Values: append([]float64(nil), vals...)})
				if over := len(model) > capacity; over != overwrote {
					t.Fatalf("push: overwrote = %v at %d buffered of %d", overwrote, len(model), capacity)
				} else if over {
					model = model[1:]
					dropped++
				}
				for j := range vals {
					vals[j] = -2
				}
			case 1:
				s, ok := popOne(r)
				if ok != (len(model) > 0) {
					t.Fatalf("pop: ok = %v with %d buffered", ok, len(model))
				}
				if ok {
					check("pop", []Sample{s}, take(1))
				}
			case 2:
				check("popN", r.PopN(arg%7-1), take(arg%7-1))
			case 3:
				// Keep a prefix from the last drain, as pendingSource does.
				keep := min(arg%3, len(dst))
				prefix := append([]Sample(nil), dst[:keep]...)
				dst = r.PopNInto(dst[:keep], arg%7-1)
				for i := range prefix {
					if dst[i].Seq != prefix[i].Seq {
						t.Fatalf("popNInto: prefix sample %d rewritten", i)
					}
				}
				held, heldWant = dst[keep:], take(arg%7-1)
				same("popNInto", held, heldWant)
			case 4:
				check("snapshot", r.Snapshot(), model)
			case 5:
				check("drain", r.Drain(), take(0))
			}
			if r.Len() != len(model) || r.Dropped() != dropped {
				t.Fatalf("len %d dropped %d, want %d, %d", r.Len(), r.Dropped(), len(model), dropped)
			}
		}
	})
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

// TestArrivalRingLastSeq: the one seq whose stamp key wraps to the empty
// marker is never reported, stamped or not.
func TestArrivalRingLastSeq(t *testing.T) {
	r := newArrivalRing(4)
	if _, ok := r.lookup(math.MaxUint64); ok {
		t.Fatal("an empty ring reports a stamp for the last seq")
	}
	r.record(math.MaxUint64, 1)
	if _, ok := r.lookup(math.MaxUint64); ok {
		t.Fatal("the last seq reports a stamp")
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
