// Package faultnet is the cluster's deterministic fault-injection harness:
// wrapped net.Conn/net.Listener/dialer seams that inject connection refusals,
// hard cuts after an exact byte count (mid-frame truncation), one-way
// partitions (blackholed writes) — as repeatable test inputs, not as timing
// races.
//
// Every fault is budgeted in bytes or dial counts, never in wall-clock time,
// so a test that cuts a migration stream after 1000 bytes cuts it at byte
// 1000 on every run. The only source of randomness is the Network's seeded
// splitmix64 generator behind the probabilistic helpers, which replays
// identically for a given seed. internal/cluster exposes the matching seams
// as Config.Dial and Config.WrapListener; all failover, partition and
// torn-stream tests are built on this package.
package faultnet

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Plan is the fault schedule applied to the connections of one address (or a
// listener's inbound side). The zero value injects nothing; mutators may be
// called at any time, including while connections are live — faults apply
// from the next operation on. All methods are safe for concurrent use.
type Plan struct {
	mu sync.Mutex
	// cutWriteAfter / cutReadAfter are byte budgets (-1 = unlimited): once a
	// direction's budget is exhausted the connection is hard-closed mid-call,
	// so the peer observes a torn frame, exactly like a crashed process.
	cutWriteAfter int64
	cutReadAfter  int64
	blackhole     bool
	refuseDials   bool
	allowDials    int64 // -1 = unlimited; >=0: dials allowed before refusing
	failDials     int64 // dials to fail before allowing again

	written int64
	read    int64
	dials   int64
}

// NewPlan returns a plan injecting no faults.
func NewPlan() *Plan {
	return &Plan{cutWriteAfter: -1, cutReadAfter: -1, allowDials: -1}
}

// CutWritesAfter hard-closes each subsequent connection once n total bytes
// have been written through this plan — the peer sees a frame torn at an
// exact, reproducible offset. Negative n disables the cut.
func (p *Plan) CutWritesAfter(n int64) { p.set(func() { p.cutWriteAfter = n }) }

// CutReadsAfter is the receive-side counterpart of CutWritesAfter.
func (p *Plan) CutReadsAfter(n int64) { p.set(func() { p.cutReadAfter = n }) }

// BlackholeWrites silently discards written bytes while reporting success —
// the one-way partition: the peer stops hearing from this side, but this
// side observes nothing wrong until it waits for a reply.
func (p *Plan) BlackholeWrites(on bool) { p.set(func() { p.blackhole = on }) }

// RefuseDials fails every subsequent dial through this plan — the full
// partition (or a dead listener) as seen from the dialing side.
func (p *Plan) RefuseDials(on bool) { p.set(func() { p.refuseDials = on }) }

// AllowDials lets the next n dials through and refuses every one after —
// e.g. "the migration connection succeeds, the leave notification does not".
// Negative n removes the budget.
func (p *Plan) AllowDials(n int64) { p.set(func() { p.allowDials = n }) }

// FailNextDials fails the next n dials, then allows again — a transient
// outage with an exact, deterministic width.
func (p *Plan) FailNextDials(n int64) { p.set(func() { p.failDials = n }) }

// Written returns total bytes written through this plan (blackholed bytes
// included), for computing cut offsets from observed traffic.
func (p *Plan) Written() int64 { p.mu.Lock(); defer p.mu.Unlock(); return p.written }

// Dials returns how many dials this plan has seen (refused ones included).
func (p *Plan) Dials() int64 { p.mu.Lock(); defer p.mu.Unlock(); return p.dials }

func (p *Plan) set(f func()) { p.mu.Lock(); f(); p.mu.Unlock() }

// admitDial consumes one dial attempt and reports whether it may proceed.
func (p *Plan) admitDial() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dials++
	if p.refuseDials {
		return false
	}
	if p.failDials > 0 {
		p.failDials--
		return false
	}
	if p.allowDials >= 0 {
		if p.allowDials == 0 {
			return false
		}
		p.allowDials--
	}
	return true
}

// Conn applies a Plan to one net.Conn.
type Conn struct {
	net.Conn
	plan *Plan
}

// Wrap applies plan to conn. A nil plan returns conn unchanged.
func Wrap(conn net.Conn, plan *Plan) net.Conn {
	if plan == nil {
		return conn
	}
	return &Conn{Conn: conn, plan: plan}
}

// Write implements net.Conn with the plan's write faults. When the cut
// budget is exhausted mid-buffer the allowed prefix is written, the
// underlying connection is closed, and the call errors — a mid-frame
// truncation at an exact byte offset.
func (c *Conn) Write(b []byte) (int, error) {
	p := c.plan
	p.mu.Lock()
	if p.blackhole {
		p.written += int64(len(b))
		p.mu.Unlock()
		return len(b), nil
	}
	allowed := int64(len(b))
	cut := false
	if p.cutWriteAfter >= 0 {
		if remain := p.cutWriteAfter - p.written; remain < allowed {
			if remain < 0 {
				remain = 0
			}
			allowed, cut = remain, true
		}
	}
	p.written += allowed
	p.mu.Unlock()
	n := 0
	var err error
	if allowed > 0 {
		n, err = c.Conn.Write(b[:allowed])
	}
	if cut {
		c.Conn.Close()
		return n, fmt.Errorf("faultnet: connection cut after %d bytes written", p.Written())
	}
	return n, err
}

// Read implements net.Conn with the plan's read faults.
func (c *Conn) Read(b []byte) (int, error) {
	p := c.plan
	p.mu.Lock()
	budget := int64(len(b))
	cutAt := p.cutReadAfter
	already := p.read
	p.mu.Unlock()
	if cutAt >= 0 {
		if remain := cutAt - already; remain < budget {
			if remain <= 0 {
				c.Conn.Close()
				return 0, fmt.Errorf("faultnet: connection cut after %d bytes read", already)
			}
			budget = remain
		}
	}
	n, err := c.Conn.Read(b[:budget])
	p.mu.Lock()
	p.read += int64(n)
	p.mu.Unlock()
	return n, err
}

// Network maps addresses to Plans and provides the dialer/listener seams
// internal/cluster's Config.Dial and Config.WrapListener accept.
type Network struct {
	mu    sync.Mutex
	plans map[string]*Plan
	def   *Plan
	rng   uint64
}

// NewNetwork builds a fault network. The seed drives the probabilistic
// helpers only; all budget-based faults are seed-independent.
func NewNetwork(seed uint64) *Network {
	return &Network{plans: map[string]*Plan{}, def: NewPlan(), rng: seed ^ 0x9e3779b97f4a7c15}
}

// Plan returns (creating on demand) the plan applied to connections dialed
// to addr.
func (nw *Network) Plan(addr string) *Plan {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	p, ok := nw.plans[addr]
	if !ok {
		p = NewPlan()
		nw.plans[addr] = p
	}
	return p
}

// Default returns the plan applied to addresses without their own.
func (nw *Network) Default() *Plan { return nw.def }

func (nw *Network) planFor(addr string) *Plan {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if p, ok := nw.plans[addr]; ok {
		return p
	}
	return nw.def
}

// Rand returns the next value of the seeded splitmix64 sequence in [0,1) —
// deterministic pseudo-randomness for probabilistic fault schedules.
func (nw *Network) Rand() float64 {
	nw.mu.Lock()
	nw.rng += 0x9e3779b97f4a7c15
	z := nw.rng
	nw.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Dial is a drop-in for cluster.Config.Dial: it consults addr's plan, refuses
// when the plan says so, and wraps admitted connections with the plan's
// byte-level faults.
func (nw *Network) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	p := nw.planFor(addr)
	if !p.admitDial() {
		return nil, fmt.Errorf("faultnet: dial %s refused by plan", addr)
	}
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return Wrap(conn, p), nil
}

// Listener wraps ln so every accepted connection carries plan's faults — the
// inbound counterpart of Dial, matching cluster.Config.WrapListener.
func Listener(ln net.Listener, plan *Plan) net.Listener {
	return &listener{Listener: ln, plan: plan}
}

type listener struct {
	net.Listener
	plan *Plan
}

func (l *listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return Wrap(conn, l.plan), nil
}

// CutWriter applies the plan's write budget to an arbitrary io.Writer — the
// file-side counterpart of Conn.Write, used to tear WAL frames at exact byte
// offsets. Once the budget is exhausted the allowed prefix is written and
// every later write fails, exactly like a process killed mid-write: bytes up
// to the cut are on disk, nothing after.
type CutWriter struct {
	w    io.Writer
	plan *Plan
}

// NewCutWriter wraps w with plan's write faults. A nil plan leaves w unfaulted.
func NewCutWriter(w io.Writer, plan *Plan) *CutWriter {
	return &CutWriter{w: w, plan: plan}
}

// Write implements io.Writer with the plan's CutWritesAfter budget.
func (c *CutWriter) Write(b []byte) (int, error) {
	p := c.plan
	if p == nil {
		return c.w.Write(b)
	}
	p.mu.Lock()
	allowed := int64(len(b))
	cut := false
	if p.cutWriteAfter >= 0 {
		if remain := p.cutWriteAfter - p.written; remain < allowed {
			if remain < 0 {
				remain = 0
			}
			allowed, cut = remain, true
		}
	}
	p.written += allowed
	p.mu.Unlock()
	n := 0
	var err error
	if allowed > 0 {
		n, err = c.w.Write(b[:allowed])
	}
	if cut {
		return n, fmt.Errorf("faultnet: write cut after %d bytes", p.Written())
	}
	return n, err
}
