// Fixture for the lockguard analyzer: guarded-field inference,
// declared guards, blocking-under-lock, and double-lock detection.
package lockguard

import (
	"net"
	"sync"
	"time"
)

// counter's n field is inferred guarded: three accesses hold mu, none
// do not (>= 2 held and >= 75%).
type counter struct {
	mu sync.Mutex
	n  int
}

func newCounter() *counter { return &counter{n: 1} } // constructor: exempt

func (c *counter) incr() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) reset() {
	c.mu.Lock()
	c.n = 0
	c.mu.Unlock()
}

func (c *counter) racyPeek() int {
	return c.n // want "field n is guarded by mu but accessed without holding it"
}

func (c *counter) branchyPeek(fast bool) int {
	if fast {
		return c.n // want "field n is guarded by mu but accessed without holding it"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// mostly's v field is NOT inferred guarded: two of four accesses hold
// the lock (50% < 75%), the entry-state-unheld convention for values
// locked by callers.
type mostly struct {
	mu sync.Mutex
	v  int
}

func (m *mostly) lockedTouch() {
	m.mu.Lock()
	m.v++
	m.v--
	m.mu.Unlock()
}

func (m *mostly) callerLockedTouch() {
	m.v++
	m.v--
}

// declared overrides inference: one access total, but the directive
// makes the guard mandatory.
type declared struct {
	mu sync.Mutex
	q  []int //ring:guardedby mu
}

func (d *declared) push(x int) { // the lhs write and the append read each count
	d.q = append(d.q, x) // want "field q is guarded by mu" "field q is guarded by mu"
}

// exempted documents a deliberately unguarded access.
func (d *declared) snapshotLen() int {
	return len(d.q) //ring:lockok racy length read is advisory only
}

// ---------------------------------------------------------------- blocking

type worker struct {
	mu   sync.Mutex
	out  chan int
	done chan struct{}
}

func (w *worker) blockySend(v int) {
	w.mu.Lock()
	w.out <- v // want "channel send while w.mu is held"
	w.mu.Unlock()
}

func (w *worker) blockyRecv() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return <-w.out // want "channel receive while w.mu is held"
}

func (w *worker) sleepyHold() {
	w.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while w.mu is held"
	w.mu.Unlock()
}

// tryPublish uses a default clause: the send cannot block, so holding
// the lock across it is fine.
func (w *worker) tryPublish(v int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case w.out <- v:
	default:
	}
}

// unlockedSend is the fixed shape: release before communicating.
func (w *worker) unlockedSend(v int) {
	w.mu.Lock()
	w.mu.Unlock()
	w.out <- v
}

// waits blocks on a receive; callers holding a lock inherit the
// finding through the may-block summary.
func (w *worker) waits() {
	<-w.done
}

func (w *worker) holdsAcrossHelper() {
	w.mu.Lock()
	w.waits() // want "call to waits may block while w.mu is held"
	w.mu.Unlock()
}

// pool keeps connections the way transport's TCP endpoint does: a
// net.Conn's Close can block in the TCP stack.
type pool struct {
	mu    sync.Mutex
	conns map[string]net.Conn
}

func (p *pool) keepFirst(to string, nc net.Conn) {
	p.mu.Lock()
	if c := p.conns[to]; c == nil {
		p.conns[to] = nc
	} else {
		nc.Close() // want "call to net.Close while p.mu is held"
	}
	p.mu.Unlock()
}

func (p *pool) closeAllHeld() {
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close() // want "call to net.Close while p.mu is held"
	}
	p.mu.Unlock()
}

// hangUp reaches net for its callers.
func hangUp(c net.Conn) { c.Close() }

func (p *pool) dropHeld(to string) {
	p.mu.Lock()
	hangUp(p.conns[to]) // want "call to hangUp may block while p.mu is held"
	delete(p.conns, to)
	p.mu.Unlock()
}

// closeAll is the fixed shape: snapshot under the lock, close after
// Unlock.
func (p *pool) closeAll() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for _, c := range p.conns {
		conns = append(conns, c)
	}
	p.conns = map[string]net.Conn{}
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// ---------------------------------------------------------------- deadlock

func (c *counter) doubleLock() {
	c.mu.Lock()
	c.mu.Lock() // want `c.mu.Lock while c.mu is already held \(self-deadlock\)`
	c.mu.Unlock()
	c.mu.Unlock()
}

// reacquire is fine: the first hold ends before the second begins.
func (c *counter) reacquire() {
	c.mu.Lock()
	c.mu.Unlock()
	c.mu.Lock()
	c.mu.Unlock()
}

// distinct keys never collide: locking two different mutexes nests.
func transfer(a, b *counter) {
	a.mu.Lock()
	b.mu.Lock()
	a.n += b.n
	b.n = 0
	b.mu.Unlock()
	a.mu.Unlock()
}
