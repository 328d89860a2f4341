// Package board is the data-acquisition layer of CognitiveArm, modelled on
// BrainFlow's board-agnostic design (§III-A1): every headset is a Board with
// a uniform streaming interface, and sessions pump samples into ring buffers
// on their own goroutine. The only board shipped here is the synthetic
// Cyton+Daisy (16 channels, 125 Hz) backed by the internal/eeg generator,
// the substitution for the OpenBCI UltraCortex Mark IV hardware.
package board

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cognitivearm/internal/eeg"
	"cognitivearm/internal/stream"
)

// Info describes a board's fixed capabilities.
type Info struct {
	Name         string
	Channels     int
	SampleRateHz float64
	ChannelNames []string
}

// Board is the uniform acquisition interface (BrainFlow's BoardShim role).
type Board interface {
	// Info returns the board's capabilities.
	Info() Info
	// Start begins streaming into the internal buffer.
	Start() error
	// Stop halts streaming. The board may be restarted.
	Stop() error
	// Read drains up to max buffered samples (oldest first). max <= 0 drains
	// everything.
	Read(max int) []stream.Sample
	// SetState tells simulated boards which mental task the "participant" is
	// performing. Hardware boards would ignore this.
	SetState(a eeg.Action)
}

// SyntheticCyton simulates the 16-channel Cyton+Daisy stack. Realtime mode
// paces samples at 125 Hz wall-clock; otherwise samples are produced on
// demand as fast as Read is called, which is what training-data generation
// and benchmarks want.
type SyntheticCyton struct {
	subject eeg.Subject
	seed    uint64

	mu       sync.Mutex
	gen      *eeg.Generator
	state    eeg.Action
	running  bool
	realtime bool
	ring     *stream.Ring
	seq      uint64
	stop     chan struct{}
	wg       sync.WaitGroup
	clock    *stream.VirtualClock
}

// NewSyntheticCyton creates a simulated board for the given subject. When
// realtime is true, Start launches a pacing goroutine at 125 Hz.
func NewSyntheticCyton(subject eeg.Subject, seed uint64, realtime bool) *SyntheticCyton {
	return &SyntheticCyton{
		subject:  subject,
		seed:     seed,
		gen:      eeg.NewGenerator(subject, seed),
		realtime: realtime,
		ring:     stream.NewRing(4096),
		stop:     make(chan struct{}),
		clock:    stream.NewVirtualClock(0, 0),
	}
}

// Info implements Board.
func (b *SyntheticCyton) Info() Info {
	return Info{
		Name:         "synthetic-cyton-daisy",
		Channels:     eeg.NumChannels,
		SampleRateHz: eeg.SampleRate,
		ChannelNames: append([]string(nil), eeg.ChannelNames...),
	}
}

// SetState implements Board.
func (b *SyntheticCyton) SetState(a eeg.Action) {
	b.mu.Lock()
	b.state = a
	b.mu.Unlock()
}

// State returns the current simulated mental task.
func (b *SyntheticCyton) State() eeg.Action {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Start implements Board.
func (b *SyntheticCyton) Start() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.running {
		return fmt.Errorf("board: already streaming")
	}
	b.running = true
	b.stop = make(chan struct{})
	if b.realtime {
		b.wg.Add(1)
		go b.pace()
	}
	return nil
}

// Stop implements Board.
func (b *SyntheticCyton) Stop() error {
	b.mu.Lock()
	if !b.running {
		b.mu.Unlock()
		return fmt.Errorf("board: not streaming")
	}
	b.running = false
	close(b.stop)
	b.mu.Unlock()
	b.wg.Wait()
	return nil
}

func (b *SyntheticCyton) pace() {
	defer b.wg.Done()
	tick := time.NewTicker(time.Duration(float64(time.Second) / eeg.SampleRate))
	defer tick.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-tick.C:
			b.produce(1)
		}
	}
}

// produce generates n samples into the ring under the current state. Push
// copies each sample's values, so the generator's array is pushed as is.
func (b *SyntheticCyton) produce(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i < n; i++ {
		raw := b.gen.Next(b.state)
		b.ring.Push(stream.Sample{Seq: b.seq, Timestamp: b.clock.Now(), Values: raw[:]})
		b.seq++
	}
}

// ReadInto is the allocation-free variant of Read and the serving shard's
// drain (serve.Source): in on-demand mode it synthesises max samples into the
// ring, then drains up to max of them into dst through Ring.PopNInto. The
// returned samples' Values live in the ring's drain arena, valid until the
// next ReadInto; the shard consumes them within the tick, which is the
// contract.
func (b *SyntheticCyton) ReadInto(dst []stream.Sample, max int) []stream.Sample {
	b.topUp(max)
	return b.ring.PopNInto(dst, max)
}

// Read implements Board. In non-realtime mode it synthesises max samples on
// demand (max must then be positive). The samples own their Values.
func (b *SyntheticCyton) Read(max int) []stream.Sample {
	b.topUp(max)
	return b.ring.PopN(max)
}

// topUp synthesises max samples into the ring when the board runs on demand;
// a realtime board's pacing goroutine fills the ring instead.
func (b *SyntheticCyton) topUp(max int) {
	b.mu.Lock()
	onDemand := b.running && !b.realtime && max > 0
	b.mu.Unlock()
	if onDemand {
		b.produce(max)
	}
}

// registry implements BrainFlow's board-id lookup so callers stay
// board-agnostic.
var (
	regMu    sync.Mutex
	registry = map[string]func(subject eeg.Subject, seed uint64, realtime bool) Board{}
)

// Register adds a board constructor under a name. It panics on duplicates,
// which would indicate two drivers claiming the same board.
func Register(name string, ctor func(subject eeg.Subject, seed uint64, realtime bool) Board) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("board: duplicate registration for " + name)
	}
	registry[name] = ctor
}

// New instantiates a registered board by name.
func New(name string, subject eeg.Subject, seed uint64, realtime bool) (Board, error) {
	regMu.Lock()
	ctor, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("board: unknown board %q (have %v)", name, Names())
	}
	return ctor(subject, seed, realtime), nil
}

// Names lists the registered boards in sorted order.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("synthetic-cyton-daisy", func(subject eeg.Subject, seed uint64, realtime bool) Board {
		return NewSyntheticCyton(subject, seed, realtime)
	})
}
