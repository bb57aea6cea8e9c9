package transport

import (
	"net/netip"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// sock is a TCP socket, non-blocking and close-on-exec from birth, held
// as a pollable *os.File: reads, writes, deadlines and Close go through
// the runtime's poller as net's do.
type sock struct {
	f   *os.File
	raw syscall.RawConn
}

// Listener is a listening TCP socket.
type Listener struct {
	sock
	addr string // as bound, the port filled in
}

// Conn is one TCP connection, with TCP_NODELAY set.
type Conn struct{ sock }

// open makes a socket for addr and runs setup (bind and listen, or
// connect) on it.
func open(addr string, setup func(fd int, sa syscall.Sockaddr) error) (sock, netip.AddrPort, error) {
	ap, err := parseAddr(addr)
	if err != nil {
		return sock{}, ap, err
	}
	family, sa := syscall.AF_INET6, syscall.Sockaddr(&syscall.SockaddrInet6{Port: int(ap.Port()), Addr: ap.Addr().As16()})
	if ap.Addr().Is4() {
		family, sa = syscall.AF_INET, &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ap.Addr().As4()}
	}
	fd, err := syscall.Socket(family, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err == nil {
		if err = setup(fd, sa); err != nil {
			syscall.Close(fd)
		}
	}
	if err != nil {
		return sock{}, ap, &os.PathError{Op: "tcp", Path: addr, Err: err}
	}
	return newSock(fd), ap, nil
}

// noDelay sends each write at once, as net does. Like net it ignores a
// failure: the connection works without it, only slower.
func noDelay(fd int) { _ = syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1) }

// newSock holds fd as a pollable file: os.NewFile sees it is
// non-blocking.
func newSock(fd int) sock {
	f := os.NewFile(uintptr(fd), "tcp")
	raw, _ := f.SyscallConn() // fails only on a nil *os.File
	return sock{f, raw}
}

// Listen opens a listening socket on addr; port 0 picks one.
func Listen(addr string) (*Listener, error) {
	port := 0
	s, ap, err := open(addr, func(fd int, sa syscall.Sockaddr) error {
		// SO_REUSEADDR: a restarted node binds its port again while the
		// old connections linger in TIME_WAIT.
		if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1); err != nil {
			return err
		}
		if err := syscall.Bind(fd, sa); err != nil {
			return err
		}
		bound, err := syscall.Getsockname(fd)
		if err != nil {
			return err
		}
		switch sa := bound.(type) {
		case *syscall.SockaddrInet4:
			port = sa.Port
		case *syscall.SockaddrInet6:
			port = sa.Port
		}
		return syscall.Listen(fd, 4096) // the kernel caps it at net.core.somaxconn
	})
	if err != nil {
		return nil, err
	}
	return &Listener{s, netip.AddrPortFrom(ap.Addr(), uint16(port)).String()}, nil
}

// Addr is the address the listener is bound to.
func (l *Listener) Addr() string { return l.addr }

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (*Conn, error) { return l.accept(true) }

// accept takes the next inbound connection; without wait it returns
// nil, nil when none is queued.
func (l *Listener) accept(wait bool) (*Conn, error) {
	nfd, err := -1, error(nil)
	if rerr := l.raw.Read(func(fd uintptr) bool {
		for {
			nfd, _, err = syscall.Accept4(int(fd), syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
			if err != syscall.EINTR && err != syscall.ECONNABORTED { // not a peer that gave up while queued
				return err != syscall.EAGAIN || !wait
			}
		}
	}); rerr != nil {
		return nil, rerr
	}
	if err == syscall.EAGAIN {
		return nil, nil
	}
	if err != nil {
		return nil, os.NewSyscallError("accept4", err)
	}
	noDelay(nfd)
	return &Conn{newSock(nfd)}, nil
}

// Dial connects to addr. The connect does not block: the poller says
// when the socket is writable, SO_ERROR then whether it connected.
func Dial(addr string) (*Conn, error) {
	s, _, err := open(addr, func(fd int, sa syscall.Sockaddr) error {
		noDelay(fd)
		if err := syscall.Connect(fd, sa); err != syscall.EINPROGRESS && err != syscall.EINTR {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// RawConn.Write forgets write readiness before it first calls the
	// callback, so the callback looks each time: waiting first would
	// lose an edge that came before it and hang.
	werr := s.raw.Write(func(fd uintptr) bool {
		n, gerr := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_ERROR)
		switch errno := syscall.Errno(n); {
		case gerr != nil:
			err = gerr
		case errno == 0: // the poller may wake early: connected once the peer has a name
			_, perr := syscall.Getpeername(int(fd))
			return perr == nil
		case errno == syscall.EINPROGRESS || errno == syscall.EALREADY || errno == syscall.EINTR:
			return false
		case errno != syscall.EISCONN:
			err = errno
		}
		return true
	})
	if err == nil {
		err = werr
	}
	if err != nil {
		s.f.Close()
		return nil, &os.PathError{Op: "dial", Path: addr, Err: err}
	}
	return &Conn{s}, nil
}

// reader reads a connection without waiting. Its callback is made
// once, so a read allocates nothing; one goroutine uses it at a time.
type reader struct {
	p     []byte
	n     int
	errno syscall.Errno
	fn    func(fd uintptr) bool // r.read
}

func newReader() *reader {
	r := new(reader)
	r.fn = r.read
	return r
}

// readNow reads into p what c has received: 0 and EAGAIN when nothing
// has, 0 and no errno once the peer has closed. err is the socket's, if
// it has been closed.
func (r *reader) readNow(c *Conn, p []byte) (int, syscall.Errno, error) {
	r.p = p
	err := c.raw.Read(r.fn)
	r.p = nil
	return r.n, r.errno, err
}

func (r *reader) read(fd uintptr) bool {
	for {
		n, _, errno := syscall.Syscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&r.p[0])), uintptr(len(r.p)))
		if errno != syscall.EINTR {
			r.n, r.errno = int(n), errno
			if errno != 0 {
				r.n = 0
			}
			return true
		}
	}
}

// Close closes the socket; a blocked call on it returns an error.
func (s *sock) Close() error { return s.f.Close() }

// Read reads what has arrived, waiting for at least one byte.
func (c *Conn) Read(p []byte) (int, error) { return c.f.Read(p) }

// SetDeadline bounds every pending and future Read and Writev.
func (c *Conn) SetDeadline(t time.Time) error { return c.f.SetDeadline(t) }

// CloseWrite shuts the sending half: the peer reads EOF after the bytes
// already written.
func (c *Conn) CloseWrite() error {
	err := error(nil)
	if cerr := c.raw.Control(func(fd uintptr) { err = syscall.Shutdown(int(fd), syscall.SHUT_WR) }); cerr != nil {
		return cerr
	}
	return os.NewSyscallError("shutdown", err)
}

// writer is the state of one write. Its callback is made once, with
// the pooled writer, so a write allocates nothing.
type writer struct {
	vec    []syscall.Iovec // backing of iov
	iov    []syscall.Iovec // what is left to write
	nowait bool            // stop at a full socket instead of waiting for room
	errno  syscall.Errno
	fn     func(fd uintptr) bool // w.write
}

var writers = sync.Pool{New: func() any {
	w := new(writer)
	w.fn = w.write
	return w
}}

// Writev writes every byte of bufs, in order. The socket's write lock
// is held to the last byte, so concurrent Writevs never interleave.
func (c *Conn) Writev(bufs [][]byte) error {
	_, err := c.writev(bufs, false)
	return err
}

// writev writes bufs in order and returns how many bytes it wrote: all
// of them, or with nowait set what a full socket took before it stopped.
func (c *Conn) writev(bufs [][]byte, nowait bool) (int, error) {
	w := writers.Get().(*writer)
	w.vec = w.vec[:0]
	n := 0
	for _, b := range bufs {
		if len(b) > 0 {
			w.vec = append(w.vec, syscall.Iovec{Base: &b[0]})
			w.vec[len(w.vec)-1].SetLen(len(b))
			n += len(b)
		}
	}
	w.iov, w.nowait = w.vec, nowait
	err := c.raw.Write(w.fn)
	if err == nil && w.errno != 0 {
		err = writevError(w.errno)
	}
	for _, v := range w.iov {
		n -= int(v.Len)
	}
	clear(w.vec) // do not pin the caller's buffers
	w.errno = 0
	writers.Put(w)
	return n, err
}

func writevError(errno syscall.Errno) error { return os.NewSyscallError("writev", errno) }

// write is the RawConn.Write callback: it writes until nothing is left,
// over short writes, and on EAGAIN returns false to wait for room, or
// true to stop when the writer does not wait.
func (w *writer) write(fd uintptr) bool {
	for len(w.iov) > 0 {
		n, _, errno := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&w.iov[0])), uintptr(len(w.iov)))
		switch errno {
		case 0:
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return w.nowait
		default:
			w.errno = errno
			return true
		}
		for len(w.iov) > 0 && n >= uintptr(w.iov[0].Len) {
			n -= uintptr(w.iov[0].Len)
			w.iov = w.iov[1:]
		}
		if n > 0 {
			w.iov[0].Base = (*byte)(unsafe.Add(unsafe.Pointer(w.iov[0].Base), n))
			w.iov[0].SetLen(int(w.iov[0].Len) - int(n))
		}
	}
	return true
}
