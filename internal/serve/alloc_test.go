package serve

import (
	"math"
	"runtime"
	"testing"

	"cognitivearm/internal/board"
	"cognitivearm/internal/eeg"
	"cognitivearm/internal/stream"
)

// TestShardTickAllocFree is the tentpole's regression gate: once windows are
// full and the arena is warm, a shard tick — source drain, window push,
// cross-session batched classification, debounce — performs zero heap
// allocations, for both classifier kinds. Board sources synthesise EEG
// on-demand through ReadInto's buffer-recycling path, so the whole
// closed loop is covered, not just the classify call. One ring-fed session
// holds a backlog through every measured tick, so the catch-up drain
// (PendingLen, the larger read) is covered too. The count over 100 ticks is
// exact (mallocs), not testing.AllocsPerRun's truncated average, so a tick
// that allocates now and then fails too; the cnn fleet's ticks run the
// streamed first convolution (nn.ConvStream) throughout.
func TestShardTickAllocFree(t *testing.T) {
	reg, p := testFleet(t)
	addCNN(t, reg, p)

	for _, modelKey := range []string{"rf", "cnn"} {
		t.Run(modelKey, func(t *testing.T) {
			const sessions = 8
			hub, err := NewHub(Config{Shards: 1, MaxSessionsPerShard: sessions + 1, TickHz: 15, LatencyWindow: 32}, reg)
			if err != nil {
				t.Fatal(err)
			}
			defer hub.Stop()
			for i := 0; i < sessions; i++ {
				b := board.NewSyntheticCyton(eeg.NewSubject(0), uint64(i)*7+3, false)
				if err := b.Start(); err != nil {
					t.Fatal(err)
				}
				if _, err := hub.Admit(SessionConfig{ModelKey: modelKey, Source: b, Norm: p.NormFor(0)}); err != nil {
					t.Fatal(err)
				}
			}
			// At most 25 + 5·100 ticks (mallocs counts up to five times) at
			// up to 18 samples each drain at most 9450.
			const backlog, warm, measured = 9600, 25, 100
			ring := stream.NewRing(backlog)
			for _, smp := range scriptedEEG(0, 97, backlog) {
				ring.Push(smp)
			}
			if _, err := hub.Admit(SessionConfig{ModelKey: modelKey, Source: RingSource{Ring: ring}, Norm: p.NormFor(0)}); err != nil {
				t.Fatal(err)
			}
			sh := hub.shards[0]
			ticks := 0
			tick := func() {
				sh.tick()
				ticks++
			}
			for i := 0; i < warm; i++ { // fill windows, warm arena + workspace
				tick()
			}
			if n := mallocs(measured, tick); n != 0 {
				t.Fatalf("%d steady-state shard ticks allocated %d times, want 0", measured, n)
			}
			if drained := backlog - ring.Len(); ring.Len() == 0 || drained < ticks*17 {
				t.Fatalf("ring session drained %d samples in %d ticks with %d left: it was not catching up throughout",
					drained, ticks, ring.Len())
			}
		})
	}
}

// mallocs counts the heap allocations of n calls of f exactly and returns
// the least of up to five such counts, stopping at a 0. testing.AllocsPerRun divides and
// truncates, so a closure that allocates on some runs only can read 0
// there; an exact count cannot. Mallocs also counts the runtime's own
// allocations, though — an OS thread the scheduler starts when it preempts
// f, a GC cycle's sudogs and timers — and those land in a count now and
// then, where an allocation of f's recurs in every one. Each count starts
// from a finished collection.
func mallocs(n int, f func()) uint64 {
	least := uint64(math.MaxUint64)
	for try := 0; try < 5 && least > 0; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}
