package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Span names. Every span is recorded from the benchmark's own files, around a
// call into one layer; spans inside the program are a later change.
type spanName uint8

const (
	spanTick       spanName = iota // Hub.TickAll, the root of one tick
	spanDrain                      // one Source.ReadInto, child of the tick
	spanInfer                      // one classifier PredictBatchWS, child of the tick
	spanFlush                      // Journal.Flush
	spanCheckpoint                 // Journal.Checkpoint
	spanReplicate                  // Node.ReplicateOnce
	spanRecover                    // one whole recovery, root of the three below
	spanLoad                       // checkpoint.LoadLatest
	spanReplay                     // serve.ReplayWAL
	spanRestore                    // serve.RestoreHub
)

var spanNames = [...]string{
	spanTick: "serve.TickAll", spanDrain: "serve.Source.ReadInto", spanInfer: "models.PredictBatchWS",
	spanFlush: "serve.Journal.Flush", spanCheckpoint: "serve.Journal.Checkpoint",
	spanReplicate: "cluster.Node.ReplicateOnce", spanRecover: "bench.recover",
	spanLoad: "checkpoint.LoadLatest", spanReplay: "serve.ReplayWAL", spanRestore: "serve.RestoreHub",
}

// noSpan is the parent of a root span.
const noSpan = int32(-1)

// span is one timed call. start/end are nanoseconds since the tracer's base;
// spans of one tick share its tick id; arg carries the span's count (samples
// drained, batch size) so ratios are taken where the work happens.
type span struct {
	start, end int64
	parent     int32
	tick       int32
	arg        int32
	name       spanName
}

// tracer keeps spans in a buffer allocated before the traced pass and writes
// them out when the benchmark ends. Shard goroutines record concurrently, so
// slots are claimed with one atomic add; a full buffer drops further spans
// (counted) rather than growing inside a timed region. A nil tracer, or one
// switched off, records nothing — the traced pass flips it per chunk to
// measure its own overhead.
type tracer struct {
	base    time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	on      atomic.Bool
	// cur is the open tick span and tick its id: ReadInto and PredictBatchWS
	// run on shard goroutines inside TickAll and parent themselves under it.
	cur  atomic.Int32
	tick atomic.Int32
}

func newTracer(capacity int) *tracer {
	t := &tracer{base: time.Now(), spans: make([]span, capacity)}
	t.cur.Store(noSpan)
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return time.Since(t.base).Nanoseconds() }

// begin opens a span and returns its index, or noSpan when tracing is off or
// the buffer is full.
func (t *tracer) begin(name spanName, parent int32) int32 {
	if !t.enabled() {
		return noSpan
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return noSpan
	}
	t.spans[i] = span{start: t.now(), parent: parent, tick: t.tick.Load(), name: name}
	return int32(i)
}

// end closes the span begin returned.
func (t *tracer) end(i int32, arg int) {
	if i == noSpan {
		return
	}
	t.spans[i].end = t.now()
	t.spans[i].arg = int32(arg)
}

// beginTick opens the root span of one TickAll and publishes it as the parent
// of everything the shards record until endTick.
func (t *tracer) beginTick() int32 {
	if !t.enabled() {
		return noSpan
	}
	t.tick.Add(1)
	i := t.begin(spanTick, noSpan)
	t.cur.Store(i)
	return i
}

func (t *tracer) endTick(i int32) {
	if t == nil {
		return
	}
	t.cur.Store(noSpan)
	t.end(i, 0)
}

// child opens a span under the open tick; outside a tick it is a root.
func (t *tracer) child(name spanName) int32 {
	if !t.enabled() {
		return noSpan
	}
	return t.begin(name, t.cur.Load())
}

// recorded returns the closed spans in recording order.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// selfTimes returns, per span, its duration minus the part of its interval
// its child spans cover. Children may overlap each other (two shards drain at
// once), so coverage is the union of their intervals clipped to the parent,
// not the sum of their durations.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent != noSpan {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		ks := kids[int32(i)]
		if len(ks) == 0 {
			continue
		}
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered, edge := int64(0), s.start
		for _, k := range ks {
			lo, hi := spans[k].start, spans[k].end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// traceEvent is one span in the written trace: times in microseconds since
// the traced pass began, self time already computed.
type traceEvent struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Tick    int     `json:"tick"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	SelfUs  float64 `json:"self_us"`
	Arg     int     `json:"arg"`
}

// writeFile writes every recorded span to path as one JSON document, one span
// per line inside the array so the file greps and diffs.
func (t *tracer) writeFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	spans := t.recorded()
	self := selfTimes(spans)
	fmt.Fprintf(w, "{\"dropped_spans\": %d, \"spans\": [\n", t.dropped.Load())
	for i, s := range spans {
		line, err := json.Marshal(traceEvent{
			ID: i, Parent: int(s.parent), Tick: int(s.tick), Name: spanNames[s.name],
			StartUs: float64(s.start) / 1e3, EndUs: float64(s.end) / 1e3,
			SelfUs: float64(self[i]) / 1e3, Arg: int(s.arg),
		})
		if err != nil {
			return err
		}
		w.Write(line)
		if i < len(spans)-1 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
	}
	w.WriteString("]}\n")
	return w.Flush()
}
