// Fixture for the lock rule: blocking operations and nested lock
// acquisitions inside mutex critical sections, including transitive
// in-package chains, chains into another package, and defer-held spans.
package a

import (
	"net"
	"sync"
	"time"

	"cognitivearm/nlbfix/b"
)

type guarded struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	other sync.Mutex
	ch    chan int
	n     int
}

func direct(g *guarded) {
	g.mu.Lock()
	g.ch <- 1                    // want `sends on a channel while g\.mu is held`
	<-g.ch                       // want `receives from a channel while g\.mu is held`
	time.Sleep(time.Millisecond) // want `sleeps while g\.mu is held`
	g.mu.Unlock()
	<-g.ch // lock released: fine
}

func deferred(g *guarded) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	<-g.ch // want `receives from a channel while g\.mu is held`
	return g.n
}

func nested(g *guarded) {
	g.mu.Lock()
	g.other.Lock() // want `acquires g\.other while g\.mu is held`
	g.other.Unlock()
	g.mu.Lock() // want `re-acquires g\.mu, already held .* self-deadlock`
	g.mu.Unlock()
}

func conditional(g *guarded, flush bool) {
	g.rw.RLock()
	if flush {
		g.rw.RUnlock()
		<-g.ch // released on this arm: fine
		return
	}
	g.rw.RUnlock()
}

// sleepy blocks transitively; the in-package summary names the chain.
func sleepy() { time.Sleep(time.Second) }

func transitive(g *guarded) {
	g.mu.Lock()
	sleepy() // want `calls sleepy, which sleeps while g\.mu is held`
	g.mu.Unlock()
}

func crossPackage(g *guarded) {
	g.mu.Lock()
	_ = b.Fast(1) // verified non-blocking: fine
	b.Slow()      // want `calls cognitivearm/nlbfix/b\.Slow, which calls nap, which sleeps while g\.mu is held`
	g.mu.Unlock()
}

func goroutineBody(g *guarded) {
	g.mu.Lock()
	// The goroutine runs outside this critical section.
	go func() { <-g.ch }()
	g.mu.Unlock()
}

// links mirrors the replica-link shape: a conn registry guarded by a mutex.
// Writing to the network while holding it stalls every other linker behind
// one slow peer.
type links struct {
	mu    sync.Mutex
	conns map[string]net.Conn
}

func shipUnderLock(l *links, buf []byte) {
	l.mu.Lock()
	for _, c := range l.conns {
		c.Write(buf) // want `performs I/O .* while l\.mu is held`
	}
	l.mu.Unlock()
}

func shipOutsideLock(l *links, id string, buf []byte) error {
	l.mu.Lock()
	c := l.conns[id]
	l.mu.Unlock()
	if c == nil {
		return nil
	}
	_, err := c.Write(buf) // lock released: fine
	return err
}

func selectDefault(g *guarded) {
	g.mu.Lock()
	select { // non-blocking poll: fine
	case v := <-g.ch:
		g.n = v
	default:
	}
	select { // want `waits in a select with no default while g\.mu is held`
	case v := <-g.ch:
		g.n = v
	}
	g.mu.Unlock()
}
