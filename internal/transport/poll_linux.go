package transport

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// poller is an endpoint's one epoll set: its listener and every
// connection, dialled or accepted. The set's own descriptor is
// non-blocking and held as an *os.File, so Poll waits for it in the
// runtime's poller, with the deadline as the file's read deadline: no
// thread blocks in epoll_wait and no goroutine reads for the endpoint.
// What a peer sends and nobody has polled waits in the kernel's socket
// buffers, whose limits are the endpoint's back-pressure.
type poller struct {
	epf   *os.File
	epRaw syscall.RawConn
	lnFd  int32
	byFd  map[int32]*tcpConn // under tcpEndpoint.mu

	// polled is set by the first Poll: from then on something reads the
	// endpoint's events, so Send never waits for room in a socket and
	// leaves what does not fit to be written on EPOLLOUT. Until then
	// Send waits, as a blocking write does.
	polled atomic.Bool

	// The polling goroutine's own, under pollMu.
	pollMu  sync.Mutex
	events  [64]syscall.EpollEvent
	nev     int
	until   time.Time             // the set's read deadline as last set
	waitFn  func(fd uintptr) bool // e.wait
	nowFn   func(fd uintptr)      // e.waitNow
	rd      *reader
	buf     []byte                            // what connections are read into
	rest    []byte                            // buf's frames a full batch left over
	restOf  *tcpConn                          // the connection rest is from
	cur     *tcpConn                          // the connection frames are being cut from
	deliver func(from string, payload []byte) // the caller's, for the current Poll
	frameFn func(from string, payload []byte) // e.frame
	n       int                               // frames the current Poll delivered
	outVec  [][]byte                          // flush's scratch
}

// sendq holds what Send could not write yet: whole buffers, in order,
// the first from off, each recycled once the kernel has all of it.
type sendq struct {
	qmu   sync.Mutex
	fd    int32
	pend  [][]byte
	off   int
	armed bool // EPOLLOUT is in the connection's event mask
}

// start makes the endpoint's epoll set and puts the listener in it.
func (e *tcpEndpoint) start() error {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return os.NewSyscallError("epoll_create1", err)
	}
	if err := syscall.SetNonblock(epfd, true); err != nil {
		syscall.Close(epfd)
		return os.NewSyscallError("setnonblock", err)
	}
	e.epf = os.NewFile(uintptr(epfd), "epoll")
	e.epRaw, _ = e.epf.SyscallConn() // fails only on a nil *os.File
	e.byFd = make(map[int32]*tcpConn)
	e.waitFn, e.nowFn, e.frameFn = e.wait, e.waitNow, e.frame
	e.rd = newReader()
	e.buf = make([]byte, readBuf)
	err = e.ln.raw.Control(func(fd uintptr) { e.lnFd = int32(fd) })
	if err == nil {
		err = e.ctl(syscall.EPOLL_CTL_ADD, e.lnFd, syscall.EPOLLIN)
	}
	if err != nil {
		e.epf.Close()
		return err
	}
	return nil
}

// stop ends the set; a Poll waiting on it returns ErrClosed.
func (e *tcpEndpoint) stop() { e.epf.Close() }

// ctl changes the set's entry for fd.
func (e *tcpEndpoint) ctl(op int, fd int32, events uint32) error {
	err := error(nil)
	if cerr := e.epRaw.Control(func(epfd uintptr) {
		err = syscall.EpollCtl(int(epfd), op, int(fd), &syscall.EpollEvent{Events: events, Fd: fd})
	}); cerr != nil {
		return cerr
	}
	return os.NewSyscallError("epoll_ctl", err)
}

// watch puts c in the set. Called under e.mu.
func (e *tcpEndpoint) watch(c *tcpConn) error {
	err := c.raw.Control(func(fd uintptr) { c.fd = int32(fd) })
	if err == nil {
		err = e.ctl(syscall.EPOLL_CTL_ADD, c.fd, syscall.EPOLLIN|syscall.EPOLLRDHUP)
	}
	if err != nil {
		return err
	}
	e.byFd[c.fd] = c
	return nil
}

// unwatch takes c out of the set before its descriptor closes. Called
// under e.mu.
func (e *tcpEndpoint) unwatch(c *tcpConn) {
	if e.byFd[c.fd] == c {
		delete(e.byFd, c.fd)
		_ = e.ctl(syscall.EPOLL_CTL_DEL, c.fd, 0) // closing the socket drops it anyway
	}
}

// Poll implements Endpoint. A batch left over in the read buffer by the
// last Poll's max goes first; then one round of ready events: accepts,
// writes a full socket held back, and one read of each ready connection
// into the endpoint's buffer, whose whole frames are delivered there.
// Only a Poll that has delivered nothing yet waits.
func (e *tcpEndpoint) Poll(deadline time.Time, max int, deliver func(from string, payload []byte)) (int, error) {
	e.pollMu.Lock()
	defer e.pollMu.Unlock()
	if !e.polled.Load() {
		e.polled.Store(true)
	}
	e.deliver, e.n = deliver, 0
	err := e.poll(deadline, max)
	e.deliver = nil
	return e.n, err
}

func (e *tcpEndpoint) poll(deadline time.Time, max int) error {
	if len(e.rest) > 0 {
		e.cur = e.restOf
		if e.rest = e.cut(e.restOf, e.rest, max); e.n > 0 {
			return nil
		}
	}
	for {
		if err := e.ready(deadline, e.n > 0); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return nil
			}
			return ErrClosed
		}
		for _, ev := range e.events[:e.nev] {
			if e.n == max {
				break // the rest stay ready: the set is level-triggered
			}
			e.handle(ev, max)
		}
		if e.n > 0 || e.nev == 0 {
			return nil
		}
	}
}

// ready fills events with what is ready in the set, waiting until the
// deadline for something to be unless nowait.
func (e *tcpEndpoint) ready(deadline time.Time, nowait bool) error {
	if nowait {
		return e.epRaw.Control(e.nowFn)
	}
	if !deadline.Equal(e.until) {
		if err := e.epf.SetReadDeadline(deadline); err != nil {
			return err
		}
		e.until = deadline
	}
	return e.epRaw.Read(e.waitFn)
}

// wait is the set's RawConn.Read callback: it takes the ready events, or
// returns false to park until there are some.
func (e *tcpEndpoint) wait(fd uintptr) bool {
	e.waitNow(fd)
	return e.nev > 0
}

func (e *tcpEndpoint) waitNow(fd uintptr) {
	for {
		n, err := syscall.EpollWait(int(fd), e.events[:], 0)
		if err != syscall.EINTR {
			e.nev = max(n, 0)
			return
		}
	}
}

// handle acts on one ready event.
func (e *tcpEndpoint) handle(ev syscall.EpollEvent, max int) {
	if ev.Fd == e.lnFd {
		e.acceptAll()
		return
	}
	e.mu.Lock()
	c := e.byFd[ev.Fd]
	e.mu.Unlock()
	if c == nil {
		return // forgotten since the wait
	}
	if ev.Events&syscall.EPOLLOUT != 0 && !e.flush(c) {
		return
	}
	if ev.Events&^syscall.EPOLLOUT == 0 {
		return
	}
	k, errno, err := e.rd.readNow(c.Conn, c.in.space(e.buf))
	if err != nil || errno != 0 && errno != syscall.EAGAIN || errno == 0 && k == 0 {
		e.forget(c) // the peer has gone, or the socket failed
		return
	}
	e.cur = c
	rest, _, err := c.in.got(e.buf, k, max-e.n, e.frameFn)
	if err != nil {
		e.forget(c)
		return
	}
	e.rest, e.restOf = rest, c
}

// cut delivers the frames rest still holds from c, at most what is left
// of max, and returns what is left of rest.
func (e *tcpEndpoint) cut(c *tcpConn, rest []byte, max int) []byte {
	rest, _, err := c.in.cut(rest, max-e.n, e.frameFn)
	if err != nil {
		e.forget(c)
		return nil
	}
	return rest
}

// frame is the streams' deliver: one frame of e.cur's to the caller's.
func (e *tcpEndpoint) frame(from string, payload []byte) {
	if c := e.cur; from != c.last {
		e.heard(c, from)
	}
	e.n++
	countRecv(payload, e.n)
	e.deliver(from, payload)
}

// acceptAll adopts every connection the kernel has queued. The listener
// leaves the set if it fails, as a loop calling Accept would end.
func (e *tcpEndpoint) acceptAll() {
	for {
		nc, err := e.ln.accept(false)
		if err != nil {
			_ = e.ctl(syscall.EPOLL_CTL_DEL, e.lnFd, 0) // failing too, it is closed with the set
			return
		}
		if nc == nil {
			return
		}
		e.mu.Lock()
		e.adopt(nc)
		e.mu.Unlock()
	}
}

// write sends payload's frame on c, or queues it: behind frames already
// queued, or, when something polls the endpoint, the part a full socket
// did not take. It takes the payload either way.
func (e *tcpEndpoint) write(c *tcpConn, payload []byte) error {
	v := frameVecs.Get().(*frameVec)
	v.frame(e.addr, payload)
	c.qmu.Lock()
	err := e.writeLocked(c, v.hdr, v.arr[:])
	c.qmu.Unlock()
	v.arr[1] = nil // do not pin the caller's buffer
	frameVecs.Put(v)
	return err
}

// writeLocked is write under c.qmu, with the frame's header and its
// vector [header, payload].
//
//ring:lockok the caller holds c.qmu
func (e *tcpEndpoint) writeLocked(c *tcpConn, hdr []byte, vec [][]byte) error {
	payload := vec[1]
	if len(c.pend) > 0 {
		countSend(payload)
		return e.queue(c, hdr, payload)
	}
	k, err := c.writev(vec, e.polled.Load())
	if err != nil {
		ReleaseBuf(payload)
		return err
	}
	countSend(payload)
	switch {
	case k == len(hdr)+len(payload):
		ReleaseBuf(payload)
		return nil
	case k < len(hdr):
		return e.queue(c, hdr[k:], payload)
	default:
		c.off = k - len(hdr)
		return e.queue(c, nil, payload)
	}
}

// queue appends what is left of a frame, a copy of its header's rest and
// the payload, to c's queue, and has the set report when c has room.
// Called under c.qmu.
func (e *tcpEndpoint) queue(c *tcpConn, hdr, payload []byte) error {
	if len(hdr) > 0 {
		c.pend = append(c.pend, append([]byte(nil), hdr...))
	}
	c.pend = append(c.pend, payload)
	return e.arm(c, true)
}

// arm adds EPOLLOUT to c's events, or takes it out. Called under c.qmu.
func (e *tcpEndpoint) arm(c *tcpConn, on bool) error {
	if c.armed == on {
		return nil
	}
	events := uint32(syscall.EPOLLIN | syscall.EPOLLRDHUP)
	if on {
		events |= syscall.EPOLLOUT
	}
	c.armed = on
	return e.ctl(syscall.EPOLL_CTL_MOD, c.fd, events)
}

// flush writes what c's queue holds until the socket is full again, and
// reports whether c is still open.
func (e *tcpEndpoint) flush(c *tcpConn) bool {
	c.qmu.Lock()
	e.outVec = e.outVec[:0]
	for i, b := range c.pend {
		if i == 64 {
			break
		}
		if i == 0 {
			b = b[c.off:]
		}
		e.outVec = append(e.outVec, b)
	}
	k, err := c.writev(e.outVec, true)
	clear(e.outVec)
	if err == nil {
		k += c.off
		for len(c.pend) > 0 && k >= len(c.pend[0]) {
			k -= len(c.pend[0])
			ReleaseBuf(c.pend[0])
			c.pend[0] = nil
			c.pend = c.pend[1:]
		}
		c.off = k
		if len(c.pend) == 0 {
			c.pend = nil
			err = e.arm(c, false)
		}
	}
	c.qmu.Unlock()
	if err != nil {
		e.forget(c)
		return false
	}
	return true
}
