package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"sync"
)

// TCPFabric implements the fabric over real TCP sockets. Each endpoint
// owns a listener; Send lazily dials and caches one outbound
// connection per peer. Frames are length-prefixed:
//
//	[4-byte big-endian frame length][frame]
//	frame = [2-byte sender-address length][sender address][payload]
//
// The sender address rides in every frame (rather than once per
// connection) to keep the framing stateless and trivially robust to
// reconnects.
//
// Send follows the package-level ownership contract: header and
// payload leave in one vectored write straight from the caller's
// buffer, which is recycled into the buffer pool before Send returns,
// so callers must hand over a buffer they will never touch again. The
// receive side reads each payload into a pooled buffer of its size
// class; nothing value-sized is allocated per frame in either
// direction.
type TCPFabric struct {
	mu sync.Mutex
	// resolve maps logical addresses to TCP "host:port" when the two
	// differ (ringd uses logical node names over real sockets).
	resolve map[string]string
}

// NewTCPFabric creates a TCP-backed fabric. Logical addresses are used
// verbatim as TCP addresses unless remapped with Map.
func NewTCPFabric() *TCPFabric {
	return &TCPFabric{resolve: make(map[string]string)}
}

// Map binds a logical address to a concrete TCP address.
func (f *TCPFabric) Map(logical, tcpAddr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resolve[logical] = tcpAddr
}

func (f *TCPFabric) lookup(addr string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t, ok := f.resolve[addr]; ok {
		return t
	}
	return addr
}

// Register implements Fabric: it starts listening on the TCP address
// mapped from addr (or addr itself). A logical address with no mapping
// and no port (e.g. an ephemeral client name) binds to a loopback
// ephemeral port; peers reach it only by replying over its outbound
// connections.
func (f *TCPFabric) Register(addr string) (Endpoint, error) {
	if addr == "" {
		return nil, ErrEmptyAddress
	}
	tcpAddr := f.lookup(addr)
	if tcpAddr == addr && !strings.Contains(addr, ":") {
		tcpAddr = "127.0.0.1:0"
	}
	ln, err := Listen(tcpAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep := &tcpEndpoint{
		fabric:     f,
		addr:       addr,
		ln:         ln,
		inbox:      make(chan Packet, 1024),
		conns:      make(map[string]*Conn),
		replyConns: make(map[string]*Conn),
		live:       make(map[*Conn]struct{}),
		done:       make(chan struct{}),
	}
	go ep.acceptLoop()
	return ep, nil
}

// BoundAddr returns the concrete TCP address an endpoint is listening
// on (useful when registering with port 0).
func BoundAddr(e Endpoint) string {
	if t, ok := e.(*tcpEndpoint); ok {
		return t.ln.Addr()
	}
	return e.Addr()
}

type tcpEndpoint struct {
	fabric *TCPFabric
	addr   string
	ln     *Listener
	inbox  chan Packet

	mu    sync.Mutex
	conns map[string]*Conn
	// replyConns remembers the inbound connection a peer last spoke
	// on, so replies can be routed to peers with no dialable address
	// (clients behind arbitrary ports).
	replyConns map[string]*Conn
	// live is every connection with a read loop, dialled or accepted,
	// for Close to end; nil once Close has run.
	live map[*Conn]struct{}

	closeOnce sync.Once
	done      chan struct{}
}

func (e *tcpEndpoint) Addr() string { return e.addr }

// RecvChan and Closed implement ChanReceiver: the read loops only ever
// send on the inbox, and Close closes done.
func (e *tcpEndpoint) RecvChan() <-chan Packet { return e.inbox }
func (e *tcpEndpoint) Closed() <-chan struct{} { return e.done }

func (e *tcpEndpoint) acceptLoop() {
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		open := e.live != nil
		if open {
			e.live[c] = struct{}{}
			go e.readLoop(c)
		}
		e.mu.Unlock()
		if !open {
			c.Close()
			return
		}
	}
}

// maxFrame bounds a frame's declared length; a whole-block transfer of
// the largest supported block fits with room to spare.
const maxFrame = 64 << 20

// frameVec is the scratch of one frame write: the header and the
// two-element vector handed to Writev. Pooled, so a send allocates
// neither; a pool rather than per-connection state, so concurrent
// senders on one connection need no lock of ours (the socket's own
// write lock keeps their frames whole).
type frameVec struct {
	hdr []byte    // [4-byte frame length][2-byte address length][address]
	arr [2][]byte // header, payload
}

var frameVecs = sync.Pool{New: func() any { return new(frameVec) }}

// writeFrame sends header and payload with one vectored write: no
// staging copy of the payload.
//
//ring:hotpath
func writeFrame(c *Conn, from string, payload []byte) error {
	v := frameVecs.Get().(*frameVec)
	v.hdr = binary.BigEndian.AppendUint32(v.hdr[:0], uint32(2+len(from)+len(payload)))
	v.hdr = binary.BigEndian.AppendUint16(v.hdr, uint16(len(from)))
	v.hdr = append(v.hdr, from...)
	v.arr[0], v.arr[1] = v.hdr, payload
	err := c.Writev(v.arr[:])
	v.arr[1] = nil // do not pin the caller's buffer
	frameVecs.Put(v)
	return err
}

//ring:hotpath
func (e *tcpEndpoint) readLoop(c *Conn) {
	defer e.forget(c)
	fr := frameReader{r: bufio.NewReaderSize(c, 64<<10)}
	// last is the sender replyConns was last told speaks on c: on one
	// connection it is the same for every frame.
	var last string
	for {
		from, payload, err := fr.next()
		if err != nil {
			return
		}
		if from != last {
			e.mu.Lock()
			e.replyConns[from] = c
			e.mu.Unlock()
			last = from
		}
		select {
		case e.inbox <- Packet{From: from, Payload: payload}:
			countRecv(payload, len(e.inbox))
		case <-e.done:
			ReleaseBuf(payload)
			return
		}
	}
}

// frameReader reads the frames of one connection. Its scratch makes a
// frame cost no allocation: the fixed part of the header, the sender
// address bytes, and the address as a string, rebuilt only when it
// differs from the previous frame's (on one connection it never does).
type frameReader struct {
	r    io.Reader
	hdr  [6]byte
	addr []byte
	from string
}

// next reads one frame, the payload into a pooled buffer of its size
// class, which the receiver releases once the packet is consumed.
//
//ring:hotpath
func (fr *frameReader) next() (from string, payload []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return "", nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	alen := int(binary.BigEndian.Uint16(fr.hdr[4:]))
	if n > maxFrame || 2+alen > n {
		return "", nil, errBadFrame(n, alen)
	}
	if cap(fr.addr) < alen {
		fr.addr = make([]byte, alen)
	}
	fr.addr = fr.addr[:alen]
	if _, err := io.ReadFull(fr.r, fr.addr); err != nil {
		return "", nil, err
	}
	if fr.from != string(fr.addr) {
		fr.from = string(fr.addr)
	}
	plen := n - 2 - alen
	payload = AcquireBufSize(plen)[:plen]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		ReleaseBuf(payload)
		return "", nil, err
	}
	return fr.from, payload, nil
}

//ring:hotpath-stop cold error constructor
func errBadFrame(n, alen int) error {
	return fmt.Errorf("transport: bad frame: length %d, address length %d", n, alen)
}

// Send performs the framed write, dialling on demand.
//
//ring:hotpath
func (e *tcpEndpoint) Send(to string, payload []byte) error {
	e.mu.Lock()
	c := e.conns[to]
	if c == nil {
		// Fall back to the connection the peer last spoke on.
		c = e.replyConns[to]
	}
	e.mu.Unlock()
	if c == nil {
		var err error
		if c, err = e.dial(to); err != nil {
			Metrics.SendErrors.Inc()
			ReleaseBuf(payload)
			return err
		}
	}
	err := writeFrame(c, e.addr, payload)
	if err == nil {
		countSend(payload)
	} else {
		Metrics.SendErrors.Inc()
	}
	// The write has returned, so the kernel has its copy; the caller's
	// payload is transport-owned (package ownership contract) and is
	// recycled either way.
	ReleaseBuf(payload)
	if err != nil {
		// Connection broke: forget it, dialled or inbound, so the next
		// send re-dials.
		e.forget(c)
		return errPeer(to, err)
	}
	return nil
}

// forget closes c and drops every route that still leads to it: its
// read loop has ended or a write to it failed, and a peer that comes
// back is dialled, not written to on a dead socket.
//
//ring:hotpath-stop cold: a connection died
func (e *tcpEndpoint) forget(c *Conn) {
	e.mu.Lock()
	for _, m := range []map[string]*Conn{e.conns, e.replyConns} {
		for peer, pc := range m {
			if pc == c {
				delete(m, peer)
			}
		}
	}
	delete(e.live, c)
	e.mu.Unlock()
	c.Close()
}

// dial opens the outbound connection to a peer, once per peer.
//
//ring:hotpath-stop cold: first send to a peer
func (e *tcpEndpoint) dial(to string) (*Conn, error) {
	nc, err := Dial(e.fabric.lookup(to))
	if err != nil {
		return nil, errPeer(to, err)
	}
	e.mu.Lock()
	c, kept := e.conns[to], false
	if c == nil && e.live != nil {
		c, kept = nc, true
		e.conns[to] = nc
		e.live[nc] = struct{}{}
		// Connections are full duplex: the peer replies over the same
		// socket, so read from dialed connections too.
		go e.readLoop(nc)
	}
	e.mu.Unlock()
	if !kept {
		// Lost the race, or the endpoint is closed: close ours outside
		// the lock — Close can block on the TCP stack and everything
		// sending through this endpoint serializes on e.mu.
		nc.Close()
	}
	if c == nil {
		return nil, ErrClosed
	}
	return c, nil
}

//ring:hotpath-stop cold error constructor
func errPeer(to string, err error) error {
	return fmt.Errorf("%w: %s (%v)", ErrUnknownPeer, to, err)
}

func (e *tcpEndpoint) Recv() (Packet, error) {
	select {
	case p := <-e.inbox:
		return p, nil
	case <-e.done:
		select {
		case p := <-e.inbox:
			return p, nil
		default:
			return Packet{}, ErrClosed
		}
	}
}

func (e *tcpEndpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		e.ln.Close()
		// Take the set under the lock, close outside it: a Close stuck
		// in the TCP stack must not wedge concurrent transmits (they
		// all take e.mu to look up a connection). Every read loop ends
		// with its connection.
		e.mu.Lock()
		live := e.live
		e.live, e.conns, e.replyConns = nil, map[string]*Conn{}, map[string]*Conn{}
		e.mu.Unlock()
		for c := range live {
			c.Close()
		}
	})
	return nil
}
