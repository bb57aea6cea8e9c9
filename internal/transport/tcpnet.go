package transport

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"time"
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
// buffer, which is recycled into the buffer pool once the kernel has
// every byte of it. On the receive side a frame is delivered where it
// was read: Poll reads each ready connection into one buffer of the
// endpoint's and hands deliver each whole frame in it (poll_linux.go;
// elsewhere, read loops queue copies, poll_other.go). Nothing
// value-sized is allocated per frame in either direction.
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
	e := &tcpEndpoint{
		fabric:     f,
		addr:       addr,
		ln:         ln,
		conns:      make(map[string]*tcpConn),
		replyConns: make(map[string]*tcpConn),
		live:       make(map[*tcpConn]struct{}),
	}
	e.recvFn = e.recvOne
	if err := e.start(); err != nil {
		ln.Close()
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return e, nil
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
	poller // how frames reach Poll: poll_linux.go, poll_other.go

	mu    sync.Mutex
	conns map[string]*tcpConn
	// replyConns remembers the inbound connection a peer last spoke
	// on, so replies can be routed to peers with no dialable address
	// (clients behind arbitrary ports).
	replyConns map[string]*tcpConn
	// live is every open connection, dialled or accepted, for Close to
	// end; nil once Close has run.
	live map[*tcpConn]struct{}

	// Recv's scratch: Poll hands recvOne the packet Recv returns.
	recvMu sync.Mutex
	recvFn func(from string, payload []byte)
	recvd  Packet
}

// tcpConn is one connection of an endpoint.
type tcpConn struct {
	*Conn
	in    stream // the receive side, read only by the endpoint's poll
	last  string // the sender replyConns was last told speaks on it
	sendq        // what Send could not write yet (poll_linux.go)
}

func (e *tcpEndpoint) Addr() string { return e.addr }

// adopt makes nc one of e's connections, or closes it if e has closed.
// Called under e.mu.
func (e *tcpEndpoint) adopt(nc *Conn) *tcpConn {
	if e.live == nil {
		nc.Close()
		return nil
	}
	c := &tcpConn{Conn: nc}
	if err := e.watch(c); err != nil {
		nc.Close()
		return nil
	}
	e.live[c] = struct{}{}
	return c
}

// heard notes that from spoke on c, so replies to it can go back that
// way. Sent from the receive side whenever a connection's sender
// changes, which on one connection happens once.
func (e *tcpEndpoint) heard(c *tcpConn, from string) {
	e.mu.Lock()
	if _, ok := e.live[c]; ok {
		e.replyConns[from] = c
	}
	e.mu.Unlock()
	c.last = from
}

// Recv implements Endpoint on Poll, copying the packet out.
func (e *tcpEndpoint) Recv() (Packet, error) {
	e.recvMu.Lock()
	defer e.recvMu.Unlock()
	for {
		n, err := e.Poll(time.Time{}, 1, e.recvFn)
		if n == 1 {
			p := e.recvd
			e.recvd = Packet{}
			return p, nil
		}
		if err != nil {
			return Packet{}, err
		}
	}
}

// recvOne is Recv's deliver: it copies the borrowed payload out.
func (e *tcpEndpoint) recvOne(from string, payload []byte) {
	e.recvd = Packet{From: from, Payload: append(AcquireBufSize(len(payload)), payload...)}
}

// maxFrame bounds a frame's declared length; a whole-block transfer of
// the largest supported block fits with room to spare.
const maxFrame = 64 << 20

// readBuf is the size of the buffer a connection is read into: an
// endpoint's on Linux, a read loop's elsewhere. A frame longer than it
// is read straight into a buffer of its own.
const readBuf = 64 << 10

// frameVec is the scratch of one frame write: the header and the
// two-element vector handed to Writev. Pooled, so a send allocates
// neither; a pool rather than per-connection state, since it lives for
// one write.
type frameVec struct {
	hdr []byte    // [4-byte frame length][2-byte address length][address]
	arr [2][]byte // header, payload
}

var frameVecs = sync.Pool{New: func() any { return new(frameVec) }}

// frame fills v with the frame of payload from sender from.
func (v *frameVec) frame(from string, payload []byte) {
	v.hdr = binary.BigEndian.AppendUint32(v.hdr[:0], uint32(2+len(from)+len(payload)))
	v.hdr = binary.BigEndian.AppendUint16(v.hdr, uint16(len(from)))
	v.hdr = append(v.hdr, from...)
	v.arr[0], v.arr[1] = v.hdr, payload
}

// writeFrame sends header and payload with one vectored write: no
// staging copy of the payload.
func writeFrame(c *Conn, from string, payload []byte) error {
	v := frameVecs.Get().(*frameVec)
	v.frame(from, payload)
	err := c.Writev(v.arr[:])
	v.arr[1] = nil // do not pin the caller's buffer
	frameVecs.Put(v)
	return err
}

// stream is the receive side of one connection: it cuts the bytes read
// from it into frames, in place. A frame that the end of a read cuts
// short waits in carry, a pooled buffer; the frame's next bytes are read
// straight into carry when the frame is longer than the read buffer, and
// into the read buffer behind a copy of carry otherwise. carry is sized
// to the frame its header declares up to carryMin, and past that doubles
// as bytes arrive, so a header alone cannot make a node allocate.
type stream struct {
	carry []byte
	from  string // the sender of the last frame
	into  bool   // the last space was carry's own
	kept  int    // bytes of carry copied to the front of the last space
}

// carryMin is the most a carry is first sized to: a frame longer
// than that gets a buffer that doubles as its bytes arrive.
const carryMin = 1 << 20

// frameHead reads the header at the front of b: the frame's whole size,
// or 0 while b is too short to tell, and an error for a frame that
// declares more than maxFrame bytes or an address longer than itself.
func frameHead(b []byte) (size int, err error) {
	if len(b) < 4 {
		return 0, nil
	}
	n := int(binary.BigEndian.Uint32(b))
	if len(b) < 6 {
		if n > maxFrame {
			return 0, nil
		}
		return max(4+n, 6), nil // a frame too short for its header is judged at 6 bytes
	}
	if alen := int(binary.BigEndian.Uint16(b[4:])); n > maxFrame || 2+alen > n {
		return 0, errBadFrame(n, alen)
	}
	return 4 + n, nil
}

func errBadFrame(n, alen int) error {
	return fmt.Errorf("transport: bad frame: length %d, address length %d", n, alen)
}

// space returns where the connection's next read goes, given the read
// buffer buf: the rest of the frame in carry, when that frame is longer
// than buf, so that no read goes past it; otherwise buf, behind a copy
// of carry.
func (s *stream) space(buf []byte) []byte {
	size, _ := frameHead(s.carry) // carry's header passed when it was cut
	if s.into = size > len(buf); s.into {
		if len(s.carry) == cap(s.carry) {
			s.carry = s.grow(size)
		}
		return s.carry[len(s.carry):min(size, cap(s.carry))]
	}
	s.kept = copy(buf, s.carry)
	if s.carry != nil {
		ReleaseBuf(s.carry)
		s.carry = nil
	}
	return buf[s.kept:]
}

// grow moves carry into a buffer twice its size, or carryMin, or the
// frame's size bytes if that is less.
func (s *stream) grow(size int) []byte {
	b := append(AcquireBufSize(min(size, max(2*cap(s.carry), carryMin))), s.carry...)
	ReleaseBuf(s.carry)
	return b
}

// got takes the k bytes a read put into the last space and delivers the
// frames they complete, at most max (see cut).
func (s *stream) got(buf []byte, k, max int, deliver func(from string, payload []byte)) (rest []byte, n int, err error) {
	if !s.into {
		return s.cut(buf[:s.kept+k], max, deliver)
	}
	s.carry = s.carry[:len(s.carry)+k]
	if size, _ := frameHead(s.carry); len(s.carry) < size {
		return nil, 0, nil
	}
	b := s.carry
	s.carry = nil
	_, n, err = s.cut(b, 1, deliver)
	ReleaseBuf(b)
	return nil, n, err
}

// cut delivers the whole frames at the front of b, at most max, each
// payload in place and capped at its own length. When max stops it,
// rest is what of b is left for the next call; otherwise an incomplete
// frame at the end of b goes to carry, and rest is empty.
func (s *stream) cut(b []byte, max int, deliver func(from string, payload []byte)) (rest []byte, n int, err error) {
	for ; n < max; n++ {
		size, err := frameHead(b)
		if err != nil {
			return nil, n, err
		}
		if size == 0 || len(b) < size {
			s.keep(b, size)
			return nil, n, nil
		}
		alen := int(binary.BigEndian.Uint16(b[4:]))
		if addr := b[6 : 6+alen]; string(addr) != s.from {
			s.from = string(addr)
		}
		deliver(s.from, b[6+alen:size:size])
		b = b[size:]
	}
	return b, n, nil
}

// keep copies the start of a frame, of size bytes once whole (0: not
// known yet), into carry.
func (s *stream) keep(b []byte, size int) {
	if len(b) > 0 {
		s.carry = append(AcquireBufSize(max(len(b), min(size, carryMin))), b...)
	}
}

// Send performs the framed write, dialling on demand.
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
	// write takes the payload, whatever it returns.
	if err := e.write(c, payload); err != nil {
		Metrics.SendErrors.Inc()
		// Connection broke: forget it, dialled or inbound, so the next
		// send re-dials.
		e.forget(c)
		return errPeer(to, err)
	}
	return nil
}

// forget closes c and drops every route that still leads to it: it has
// ended or a write to it failed, and a peer that comes back is dialled,
// not written to on a dead socket.
func (e *tcpEndpoint) forget(c *tcpConn) {
	e.mu.Lock()
	if _, ok := e.live[c]; ok {
		for _, m := range []map[string]*tcpConn{e.conns, e.replyConns} {
			for peer, pc := range m {
				if pc == c {
					delete(m, peer)
				}
			}
		}
		delete(e.live, c)
		e.unwatch(c)
	}
	e.mu.Unlock()
	c.Close()
}

// dial opens the outbound connection to a peer, once per peer.
func (e *tcpEndpoint) dial(to string) (*tcpConn, error) {
	nc, err := Dial(e.fabric.lookup(to))
	if err != nil {
		return nil, errPeer(to, err)
	}
	e.mu.Lock()
	c := e.conns[to]
	if c == nil {
		// Connections are full duplex: the peer replies over the same
		// socket, so dialled connections are read too.
		if c = e.adopt(nc); c != nil {
			e.conns[to] = c
		}
		nc = nil
	}
	e.mu.Unlock()
	if nc != nil {
		// Lost the race: close ours outside the lock — Close can block
		// on the TCP stack and everything sending through this endpoint
		// serializes on e.mu.
		nc.Close()
	}
	if c == nil {
		return nil, ErrClosed
	}
	return c, nil
}

func errPeer(to string, err error) error {
	return fmt.Errorf("%w: %s (%v)", ErrUnknownPeer, to, err)
}

// Close ends the endpoint: its listener, its connections and whatever
// waits in Poll.
func (e *tcpEndpoint) Close() error {
	// Take the set under the lock, close outside it: a Close stuck in
	// the TCP stack must not wedge concurrent transmits (they all take
	// e.mu to look up a connection).
	e.mu.Lock()
	live := e.live
	e.live, e.conns, e.replyConns = nil, map[string]*tcpConn{}, map[string]*tcpConn{}
	e.mu.Unlock()
	if live == nil {
		return nil
	}
	e.ln.Close()
	e.stop()
	for c := range live {
		c.Close()
	}
	return nil
}
