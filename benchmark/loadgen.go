package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ring/internal/client"
	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/transport"
)

// conn is one client endpoint together with the checker of the keys it
// owns.
type conn struct {
	cl    *client.Client
	chk   *checker
	w     *spec
	names []string // key index -> key
}

var errWrongValue = errors.New("reply contradicts an acknowledged write")

// do issues one operation, waits for its reply and checks it. buf is
// the caller's scratch for put values, w.valueSize bytes long.
func (c *conn) do(o op, buf []byte) error {
	name := c.names[o.key]
	switch o.kind {
	case opPut:
		ctr := c.chk.nextWrite(o.key, c.w.putMemgest)
		fillValue(buf, c.chk.seed, o.key, ctr)
		ver, err := c.cl.PutIn(name, buf, c.w.putMemgest)
		if err != nil {
			return err
		}
		if !c.chk.ackPut(o.key, ctr, ver) {
			return errWrongValue
		}
	case opGet:
		floor := c.chk.floor(o.key)
		val, ver, err := c.cl.Get(name)
		if err != nil {
			return err
		}
		if !c.chk.gotValue(o.key, floor, val, ver) {
			return errWrongValue
		}
	case opMove:
		ver, err := c.cl.Move(name, c.chk.nextMove(o.key))
		if err != nil {
			return err
		}
		c.chk.ackMove(o.key, ver)
	}
	return nil
}

// dialConns connects the benchmark's client endpoints to a deployment
// reachable through fabric, which maps node/<i> for every node.
func dialConns(fabric transport.Fabric, nodes int, w *spec, seed int64) ([]*conn, error) {
	bootstrap := make([]string, nodes)
	for i := range bootstrap {
		bootstrap[i] = core.NodeAddr(proto.NodeID(i))
	}
	names := make([]string, w.keys)
	for i := range names {
		names[i] = keyName(uint32(i))
	}
	conns := make([]*conn, 0, connections)
	for i := 0; i < connections; i++ {
		// One retry: a timed-out attempt is already a failed operation,
		// the retry only keeps one lost reply from wedging a slot.
		cl, err := client.Dial(fabric, bootstrap, client.Options{Timeout: 5 * time.Second, Retries: 1})
		if err != nil {
			closeConns(conns)
			return nil, fmt.Errorf("dial connection %d: %w", i, err)
		}
		conns = append(conns, &conn{cl: cl, chk: newChecker(w, seed), w: w, names: names})
	}
	return conns, nil
}

func closeConns(conns []*conn) {
	for _, c := range conns {
		c.cl.Close()
	}
}

// split routes a stream to the connections that own its keys.
func split(ops []op) [][]op {
	lists := make([][]op, connections)
	for _, o := range ops {
		c := connOf(o.key)
		lists[c] = append(lists[c], o)
	}
	return lists
}

// preloadSlots is the issue concurrency per connection while loading.
const preloadSlots = 32

// eachKey runs fn for every key the connections own, preloadSlots at a
// time per connection, and returns the first error.
func eachKey(conns []*conn, kind opKind, only func(key uint32) bool) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for ci, c := range conns {
		var next atomic.Int64
		for s := 0; s < preloadSlots; s++ {
			wg.Add(1)
			go func(ci int, c *conn, next *atomic.Int64) {
				defer wg.Done()
				buf := make([]byte, c.w.valueSize)
				for {
					key := uint32(next.Add(1)-1)*connections + uint32(ci)
					if int(key) >= c.w.keys {
						return
					}
					if only != nil && !only(key) {
						continue
					}
					if err := c.do(op{kind: kind, key: key}, buf); err != nil {
						mu.Lock()
						if first == nil {
							first = fmt.Errorf("%s %s: %w", kind, c.names[key], err)
						}
						mu.Unlock()
						return
					}
				}
			}(ci, c, &next)
		}
	}
	wg.Wait()
	return first
}

// preload writes every key once, moves the pre-moved half on a preMove
// workload, and reads every key back, checking it.
func preload(conns []*conn) error {
	if err := eachKey(conns, opPut, nil); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	if conns[0].w.preMove {
		if err := eachKey(conns, opMove, preMoved); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	if err := eachKey(conns, opGet, nil); err != nil {
		return fmt.Errorf("preload read-back: %w", err)
	}
	return nil
}

// phase is what one measured phase produced.
type phase struct {
	elapsed   time.Duration
	lat       [numKinds][]time.Duration // sorted
	attempted int
	failed    int
	firstErr  error

	// Open phase only.
	lag []time.Duration // sorted: how late each operation was dispatched
	// backlogMid and backlogEnd are the mean numbers of operations
	// dispatched but not completed, sampled at each dispatch over the
	// third and the last quarter of the schedule.
	backlogMid, backlogEnd float64
}

func (p *phase) completed() int {
	n := 0
	for _, l := range p.lat {
		n += len(l)
	}
	return n
}

// slot collects what one issuing goroutine measured.
type slot struct {
	lat      [numKinds][]time.Duration
	failed   int
	firstErr error
}

// record files one finished operation.
func (s *slot) record(c *conn, o op, lat time.Duration, err error) {
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = fmt.Errorf("%s %s: %w", o.kind, c.names[o.key], err)
		}
		return
	}
	s.lat[o.kind] = append(s.lat[o.kind], lat)
}

func (p *phase) merge(slots []slot) {
	for i := range slots {
		s := &slots[i]
		for k := range s.lat {
			p.lat[k] = append(p.lat[k], s.lat[k]...)
		}
		p.failed += s.failed
		if p.firstErr == nil {
			p.firstErr = s.firstErr
		}
	}
	for k := range p.lat {
		sortDurations(p.lat[k])
	}
	p.attempted = p.completed() + p.failed
}

// runClosed keeps closedDepth synchronous operations in flight on each
// connection for d. Each connection walks its own list, wrapping, and
// an operation counts when it completes within d.
func runClosed(conns []*conn, lists [][]op, d time.Duration) *phase {
	slots := make([]slot, len(conns)*closedDepth)
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range conns {
		var next atomic.Int64
		for s := 0; s < closedDepth; s++ {
			wg.Add(1)
			go func(c *conn, list []op, next *atomic.Int64, out *slot) {
				defer wg.Done()
				buf := make([]byte, c.w.valueSize)
				for {
					o := list[int(next.Add(1)-1)%len(list)]
					t0 := time.Now()
					err := c.do(o, buf)
					t1 := time.Now()
					if t1.Sub(start) > d {
						return
					}
					out.record(c, o, t1.Sub(t0), err)
				}
			}(c, lists[ci], &next, &slots[ci*closedDepth+s])
		}
	}
	wg.Wait()
	p := &phase{elapsed: d}
	p.merge(slots)
	return p
}

// sleepUntil blocks the calling OS thread until due has passed since
// start and returns the time then. It sleeps in the kernel, not on a Go
// timer: an idle Go scheduler waits in epoll with millisecond
// granularity, which would make every dispatch up to 1 ms late.
func sleepUntil(start time.Time, due time.Duration) time.Duration {
	for {
		now := time.Since(start)
		if now >= due {
			return now
		}
		ts := syscall.NsecToTimespec(int64(due - now))
		_ = syscall.Nanosleep(&ts, nil) // an early return is caught by the loop
	}
}

// runOpen offers ops on a fixed schedule: operation i of the stream is
// due i/rate after the start, whichever connection owns its key, and is
// timed from that instant. One pacing goroutine on a thread of its own
// hands due operations to openSlots issuing goroutines per connection.
func runOpen(conns []*conn, ops []op, rate float64) *phase {
	gap := float64(time.Second) / rate
	slots := make([]slot, len(conns)*openSlots)
	queues := make([]chan int, len(conns))
	var (
		wg         sync.WaitGroup
		dispatched atomic.Int64
		completed  atomic.Int64
	)
	start := time.Now()
	for ci, c := range conns {
		// Sized to the whole stream, so that the pacer never blocks on a
		// slow system: the backlog shows as latency, not as a lower rate.
		queues[ci] = make(chan int, len(ops))
		for s := 0; s < openSlots; s++ {
			wg.Add(1)
			go func(c *conn, queue <-chan int, out *slot) {
				defer wg.Done()
				buf := make([]byte, c.w.valueSize)
				for i := range queue {
					err := c.do(ops[i], buf)
					lat := time.Since(start) - time.Duration(float64(i)*gap)
					completed.Add(1)
					out.record(c, ops[i], lat, err)
				}
			}(c, queues[ci], &slots[ci*openSlots+s])
		}
	}
	// The pacer's view: each dispatch's lag, and the backlog summed per
	// quarter of the schedule.
	lag := make([]time.Duration, 0, len(ops))
	var backlog, n [4]int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i, o := range ops {
			due := time.Duration(float64(i) * gap)
			lag = append(lag, sleepUntil(start, due)-due)
			q := 4 * i / len(ops)
			backlog[q] += dispatched.Add(1) - completed.Load()
			n[q]++
			queues[connOf(o.key)] <- i
		}
		for _, q := range queues {
			close(q)
		}
	}()
	wg.Wait()
	p := &phase{elapsed: time.Since(start), lag: lag}
	p.merge(slots)
	sortDurations(p.lag)
	if n[2] > 0 {
		p.backlogMid = float64(backlog[2]) / float64(n[2])
	}
	if n[3] > 0 {
		p.backlogEnd = float64(backlog[3]) / float64(n[3])
	}
	return p
}
