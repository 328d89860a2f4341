package nn_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"cognitivearm/internal/control"
	"cognitivearm/internal/dataset"
	"cognitivearm/internal/nn"
	"cognitivearm/internal/tensor"
)

const (
	streamChannels = 16
	streamWindow   = 100 // 96 start positions for a kernel of 5
)

// streamNets are the first-layer shapes a stream must reproduce: the serving
// CNN (conv, fused ReLU, mean pool, dense), a conv with no ReLU after it, an
// odd stride, and a stack whose later conv and pool layers run unstreamed.
func streamNets() map[string]*nn.Network {
	rng := tensor.NewRNG(43)
	return map[string]*nn.Network{
		"cnn": nn.NewNetwork(nn.NewConv1D(streamChannels, 32, 5, 2, rng), nn.NewReLU(),
			nn.NewMeanPool(), nn.NewDropout(0.2, rng.Fork()), nn.NewDense(32, 3, rng)),
		"no-relu": nn.NewNetwork(nn.NewConv1D(streamChannels, 12, 5, 2, rng),
			nn.NewMeanPool(), nn.NewDense(12, 3, rng)),
		"stride-3": nn.NewNetwork(nn.NewConv1D(streamChannels, 8, 4, 3, rng), nn.NewReLU(),
			nn.NewMeanPool(), nn.NewDense(8, 3, rng)),
		"stack": nn.NewNetwork(nn.NewConv1D(streamChannels, 8, 5, 2, rng), nn.NewReLU(),
			nn.NewPool1D(nn.MaxPoolKind, 2), nn.NewConv1D(8, 8, 3, 1, rng), nn.NewReLU(),
			nn.NewMeanPool(), nn.NewDense(8, 3, rng)),
	}
}

// streamSession is one sliding window and its stream, fed a random signal.
type streamSession struct {
	win  *control.Windower
	conv *nn.ConvStream
	rng  *tensor.RNG
	smp  []float64
}

func newStreamSession(t testing.TB, net *nn.Network, seed uint64) *streamSession {
	t.Helper()
	win, err := control.NewWindower(125, streamChannels, streamWindow, dataset.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	return &streamSession{win: win, conv: net.NewConvStream(streamWindow), rng: tensor.NewRNG(seed),
		smp: make([]float64, streamChannels)}
}

// push feeds k samples to the window and the stream, as a shard tick does.
func (s *streamSession) push(k int) {
	for i := 0; i < k; i++ {
		for ch := range s.smp {
			s.smp[ch] = 40 * s.rng.NormFloat64()
		}
		s.win.Push(s.smp)
	}
	s.conv.Advance(k)
}

// TestForwardStreamMatchesForwardBatch is the stream's bitwise contract:
// after any number of new samples — 1, the 8 and 9 of a 125 Hz / 15 Hz tick,
// a catch-up tick's 18, and the ≥ 96 after which every row is new — and for
// a fresh stream beside a full window (a restored or migrated session),
// ForwardStream's logits equal full-window ForwardBatch's bit for bit. Each
// batch mixes those counts, so the stream GEMM's row count leaves the
// portable tile a tail, and 40 rounds carry every window across the
// Windower's wrap and every stream around its ring. It runs serial and on a
// kernel pool, where the serving CNN's first GEMM (nine windows of 48 new
// rows) crosses the crossover.
func TestForwardStreamMatchesForwardBatch(t *testing.T) {
	counts := [][]int{
		{1, 8, 9, 18, 96, 8, 9, 8, 1},
		{9, 9, 8, 1, 150, 18, 8, 9, 9},
		{18, 1, 100, 9, 8, 8, 1, 9, 8},
		{8, 96, 1, 18, 9, 9, 8, 18, 8},
		{1, 1, 9, 8, 97, 8, 9, 8, 9},
	}
	for name, net := range streamNets() {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/threads-%d", name, threads), func(t *testing.T) {
				pool := tensor.NewPool(threads)
				defer pool.Close()
				ws := tensor.NewWorkspace()
				sess := make([]*streamSession, len(counts[0]))
				for i := range sess {
					sess[i] = newStreamSession(t, net, uint64(7*i+1))
					sess[i].push(streamWindow) // fill
				}
				xs := make([]*tensor.Matrix, len(sess))
				streams := make([]*nn.ConvStream, len(sess))
				for round := 0; round < 40; round++ {
					if round%7 == 3 { // restore: a fresh stream beside a full window
						s := sess[round%len(sess)]
						s.conv = net.NewConvStream(streamWindow)
					}
					for i, s := range sess {
						s.push(counts[round%len(counts)][(i+round)%len(sess)])
						xs[i], streams[i] = s.win.Window(), s.conv
					}
					ws.SetPool(pool)
					ws.Reset()
					want := net.ForwardBatch(tensor.NewWorkspace(), xs, false)
					got := net.ForwardStream(ws, xs, streams)
					for i := range want {
						for j, w := range want[i].Data {
							if g := got[i].Data[j]; math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("round %d window %d logit %d: streamed %v (%#x) != full window %v (%#x)",
									round, i, j, g, math.Float64bits(g), w, math.Float64bits(w))
							}
						}
					}
				}
			})
		}
	}
}

// TestNewConvStreamOnlyForConv: a network whose first layer is not a Conv1D,
// or a window shorter than the kernel, has no stream.
func TestNewConvStreamOnlyForConv(t *testing.T) {
	rng := tensor.NewRNG(5)
	lstm := nn.NewNetwork(nn.NewLSTM(streamChannels, 4, rng), nn.NewLastStep(), nn.NewDense(4, 3, rng))
	if s := lstm.NewConvStream(streamWindow); s != nil {
		t.Fatal("an LSTM network made a conv stream")
	}
	if s := streamNets()["cnn"].NewConvStream(4); s != nil {
		t.Fatal("a window shorter than the kernel made a conv stream")
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

// TestForwardStreamAllocFree: with a warm workspace, 120 streamed ticks of a
// 50-session batch at the 125 Hz / 15 Hz schedule (8 or 9 new samples per
// window) make no heap allocation at all, counted exactly.
func TestForwardStreamAllocFree(t *testing.T) {
	net := streamNets()["cnn"]
	const b = 50
	sess := make([]*streamSession, b)
	xs := make([]*tensor.Matrix, b)
	streams := make([]*nn.ConvStream, b)
	for i := range sess {
		sess[i] = newStreamSession(t, net, uint64(i+1))
		sess[i].push(streamWindow)
	}
	ws := tensor.NewWorkspace()
	labels := make([]int, 0, b)
	var acc float64
	tick := func() {
		acc += 125.0 / 15
		k := int(acc)
		acc -= float64(k)
		for i, s := range sess {
			s.push(k)
			xs[i], streams[i] = s.win.Window(), s.conv
		}
		ws.Reset()
		labels = net.PredictStream(ws, xs, streams, labels[:0])
	}
	for i := 0; i < 10; i++ { // the first computes every row; then 8s and 9s
		tick()
	}
	if n := mallocs(120, tick); n != 0 {
		t.Fatalf("120 warm streamed ticks allocated %d times, want 0", n)
	}
}
