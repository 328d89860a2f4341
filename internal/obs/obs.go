// Package obs is CognitiveArm's telemetry core: process-wide counters,
// gauges, latency histograms and a bounded ring of structured lifecycle
// events, built entirely on the standard library and designed around the
// serving stack's arena discipline — recording a metric on the shard tick
// path performs zero heap allocations and takes no locks.
//
// # Design
//
//   - Counter and Gauge are single atomics. Histogram is a fixed set of
//     log-scale buckets updated with atomic adds (bucket lookup is a binary
//     search over a small immutable bounds slice) plus a CAS-maintained
//     float64 sum — lock-free, allocation-free, safe under any number of
//     concurrent writers and readers.
//
//   - Registry names and owns metrics. Registration is idempotent: asking
//     for an existing name+labels returns the same metric, so independent
//     subsystems (several hubs in one test binary, every inlet of a daemon)
//     share one process-global series instead of colliding. Conflicting
//     re-registration (same name, different type) panics — that is a
//     programming error, not an operational condition.
//
//   - EventRing (events.go) records structured lifecycle events — admissions,
//     refusals, evictions, checkpoints with bytes+duration, migrations,
//     membership changes, inlet frame drops — into a fixed, lock-striped ring
//     with bounded loss: when the ring wraps, the oldest events are
//     overwritten and counted, never blocking a writer.
//
//   - WriteText (expo.go) renders the registry in the Prometheus text
//     exposition format v0.0.4; AdminMux (admin.go) serves it at /metrics
//     next to /statusz, /healthz, /events and net/http/pprof.
//
// The package-global Default registry and DefaultEvents ring are what the
// serving stack instruments itself against; tests that need isolation build
// their own NewRegistry/NewEventRing.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to a metric at
// registration. Values are free-form (escaped at exposition); names must
// match the Prometheus label grammar.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing uint64. The zero value is usable but
// unregistered; obtain registered counters from a Registry. A nil handle is a
// no-op sink: Inc and Add on a nil *Counter return at once.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, stored as atomic bits. A nil
// handle is a no-op sink: Set, Add, Inc and Dec on a nil *Gauge return at
// once.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments by delta (CAS loop; lock-free).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind discriminates families; a name maps to exactly one kind.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labelled instance within a family.
type series struct {
	labels []Label // sorted by name
	key    string  // canonical label signature
	ctr    *Counter
	gauge  *Gauge
	fn     func() float64
	hist   *Histogram
}

// family groups every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
	byKey  map[string]*series
}

// Registry names and owns metrics and renders them for scraping. All methods
// are safe for concurrent use; registration takes the registry lock, but
// updating a registered metric never does.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

var (
	defaultOnce   sync.Once
	defaultReg    *Registry
	defaultEvents *EventRing
)

func initDefaults() {
	defaultReg = NewRegistry()
	defaultEvents = NewEventRing(DefaultEventCapacity, DefaultEventStripes)
}

// Default returns the process-global registry the serving stack instruments
// itself against. It never returns nil.
func Default() *Registry {
	defaultOnce.Do(initDefaults)
	return defaultReg
}

// DefaultEvents returns the process-global lifecycle event ring. It never
// returns nil.
func DefaultEvents() *EventRing {
	defaultOnce.Do(initDefaults)
	return defaultEvents
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// labelKey canonicalises a sorted label set into a map key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// register resolves (or creates) the series for name+labels, enforcing name
// validity and kind consistency. build constructs a fresh series body.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, build func(*series)) *series {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	for i, l := range ls {
		if !labelNameRe.MatchString(l.Name) {
			panic(fmt.Sprintf("obs: metric %q: invalid label name %q", name, l.Name))
		}
		if i > 0 && ls[i-1].Name == l.Name {
			panic(fmt.Sprintf("obs: metric %q: duplicate label %q", name, l.Name))
		}
	}
	key := labelKey(ls)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fams == nil {
		r.fams = map[string]*family{}
	}
	fam, ok := r.fams[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind, byKey: map[string]*series{}}
		r.fams[name] = fam
	} else if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, fam.kind))
	}
	if s, ok := fam.byKey[key]; ok {
		return s
	}
	s := &series{labels: ls, key: key}
	build(s)
	fam.byKey[key] = s
	fam.series = append(fam.series, s)
	sort.Slice(fam.series, func(i, j int) bool { return fam.series[i].key < fam.series[j].key })
	return s
}

// Counter returns the counter registered under name+labels, creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, labels, func(s *series) { s.ctr = &Counter{} })
	return s.ctr
}

// Gauge returns the gauge registered under name+labels, creating it on first
// use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, kindGauge, labels, func(s *series) { s.gauge = &Gauge{} })
	return s.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time
// (runtime stats, uptime, ring membership). Re-registering the same
// name+labels keeps the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGaugeFunc, labels, func(s *series) { s.fn = fn })
}

// Histogram returns the histogram registered under name+labels, creating it
// with the given bucket upper bounds on first use (a final +Inf bucket is
// implicit). Re-registering the same name+labels returns the existing
// histogram; its original bounds win.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.register(name, help, kindHistogram, labels, func(s *series) { s.hist = newHistogram(bounds) })
	return s.hist
}

// famView is an immutable exposition snapshot of one family: the series
// slice is copied under the registry lock so a concurrent registration can
// never be observed mid-append. GaugeFunc callbacks run outside the lock.
type famView struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// sortedFamilies snapshots the families in name order for exposition.
func (r *Registry) sortedFamilies() []famView {
	r.mu.Lock()
	out := make([]famView, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, famView{
			name: f.name, help: f.help, kind: f.kind,
			series: append([]*series(nil), f.series...),
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
