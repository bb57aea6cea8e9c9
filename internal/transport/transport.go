// Package transport provides the message fabric Ring nodes and
// clients communicate over. It is the stand-in for the paper's RDMA
// verbs layer: a connectionless, message-oriented interface with two
// real implementations — an in-process channel fabric (memnet) used by
// tests, examples and live benchmarks, and a TCP fabric (tcpnet) used
// by the ringd/ringctl binaries.
//
// The abstraction is deliberately RDMA-send/receive-shaped: an
// Endpoint registers under an address and exchanges datagrams with
// other endpoints; there is no per-peer connection state visible to
// the user. All protocol structure (who talks to whom, how many hops,
// how many bytes) lives above this layer, which is what lets the
// discrete-event simulator (package sim) reproduce latency behaviour
// without any transport at all.
//
// # Sockets
//
// tcpnet runs over the package's own socket layer (Listen, Dial, Conn)
// on syscall, not net (sock_linux.go; net off Linux, sock_other.go), so
// ringd links no resolver and no cgo. An address is an IP literal,
// localhost or an empty host, then a port: nothing resolves a name.
// Connections have TCP_NODELAY set and no TCP keep-alive (net's is
// 15 s): Ring's heartbeats are its failure detector.
//
// # Packet size
//
// A receiver reads each connection into one buffer of readBuf bytes, as
// an RDMA receiver posts buffers of a fixed size that a SEND must fit.
// So a packet that carries more than one message is at most MaxPacket
// bytes, and a frame of one fits that buffer whoever sent it; senders
// that batch (core.Host.Pack, the client's outbox) close a packet
// before the next message would take it past that. A lone message that
// is longer still travels: its frame is read into a pooled buffer of
// its own. Metrics.BufAllocBytes counts what the pool had to allocate.
//
// # Payload ownership
//
// Send transfers ownership of the payload slice to the transport: the
// caller must not read or modify it after Send returns, whether or
// not Send reported an error. This lets memnet hand the very same
// slice to the receiver instead of copying it, and tcpnet write it to
// the socket in place, the way an RDMA send posts a registered buffer
// rather than staging a copy. The receiver borrows: Poll lends each
// packet to its deliver callback and takes the bytes back when it
// returns (tcpnet decodes frames in place in the buffer it read them
// into), while Recv copies a packet out for a caller that keeps it,
// who may recycle it with ReleaseBuf.
//
// Consumed means more than decoded: proto.Decode may alias the payload
// (the byte fields of a decoded message, and the keys of some, are
// views into it), so a packet is consumed only when every handler of
// every message it carried has returned. The one rule: a handler that
// keeps bytes of a message past its return copies them; everything else
// reads the packet in place. A node's runner applies the same rule to
// the message struct (proto.Release): it gives a decoded message back
// when its handler returns and a sent one once it is encoded, so a
// handler that keeps a message keeps a copy. AcquireBuf/AcquireBufSize/
// ReleaseBuf implement the recycling: senders encode into acquired
// buffers, and the steady-state message path allocates nothing. All are
// optional — any fresh slice may be sent, and unreleased payloads are
// simply garbage collected.
package transport

import (
	"errors"
	"math/bits"
	"sync"
	"time"
)

// The buffer pool is the stand-in for an RDMA registered-buffer pool.
// It is split into power-of-two size classes, so that a receiver
// releasing 40-byte acks and a sender acquiring room for a 16 KiB
// parity update do not trade buffers and regrow them: class c holds
// buffers with capacity in [minBuf<<c, minBuf<<(c+1)). Payloads past
// the largest class (whole-block transfers during recovery) are left
// to the collector rather than retained.
const (
	minBufShift = 10 // 1 KiB
	maxBufShift = 20 // 1 MiB
	minBuf      = 1 << minBufShift
	bufClasses  = maxBufShift - minBufShift + 1
)

var (
	bufPools [bufClasses]sync.Pool // of *[]byte with the buffer in it
	// hdrPool recycles the emptied *[]byte boxes, so that a release
	// does not allocate a slice header to carry the buffer.
	hdrPool sync.Pool
)

// MaxPacket is the largest payload that may carry more than one
// message (see "Packet size" above): the frame of a MaxPacket payload
// (6 header bytes, the sender's address, the payload) from the longest
// sender address the tree uses fills one read buffer exactly.
const MaxPacket = readBuf - 6 - longestAddr

// longestAddr is the length of the longest sender address the tree
// uses: a client's, "client/" and 16 hex digits (client.Dial).
const longestAddr = len("client/") + 16

// AcquireBuf returns an empty buffer for a caller that does not know
// how much it will append: the smallest buffer the pool holds, whatever
// its class, or a fresh 1 KiB one. Append to it, then pass the result to
// Send, which takes ownership. A caller that knows the size asks
// AcquireBufSize and stays in its class.
func AcquireBuf() []byte {
	for c := range bufPools {
		if b := pooled(c); b != nil {
			return b
		}
	}
	return fresh(minBuf)
}

// AcquireBufSize returns an empty buffer with room for n bytes.
func AcquireBufSize(n int) []byte {
	c := 0
	if n > minBuf {
		c = bits.Len(uint(n-1)) - minBufShift
	}
	if c >= bufClasses {
		return fresh(n)
	}
	if b := pooled(c); b != nil {
		return b
	}
	return fresh(minBuf << c)
}

// fresh allocates the buffer the pool did not have, and counts it in
// Metrics.BufAllocBytes.
func fresh(n int) []byte {
	Metrics.BufAllocBytes.Add(uint64(n))
	return make([]byte, 0, n)
}

// pooled takes a buffer out of class c, or returns nil if it is empty.
func pooled(c int) []byte {
	p, _ := bufPools[c].Get().(*[]byte)
	if p == nil {
		return nil
	}
	b := *p
	*p = nil
	hdrPool.Put(p)
	return b
}

// ReleaseBuf recycles a payload buffer whose contents are no longer
// referenced anywhere — a Recv payload once consumed (see the package
// doc). Releasing a buffer that is still aliased corrupts later
// messages; when in doubt, don't release (the pool is purely an
// optimization).
func ReleaseBuf(b []byte) {
	c := bits.Len(uint(cap(b))) - 1 - minBufShift
	if c < 0 || c >= bufClasses {
		return
	}
	p, _ := hdrPool.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = b[:0]
	bufPools[c].Put(p)
}

// Packet is one datagram delivered through a fabric.
type Packet struct {
	From    string
	Payload []byte
}

// Endpoint is a registered participant able to send and receive.
type Endpoint interface {
	// Addr returns the address the endpoint registered under.
	Addr() string
	// Send transmits payload to the endpoint registered at `to`.
	// Delivery is best-effort: sends to dead or unknown endpoints
	// return an error or are dropped, like datagrams. Ownership of
	// payload transfers to the transport (see the package doc): the
	// caller must not touch the slice after Send returns.
	Send(to string, payload []byte) error
	// Poll waits until a packet arrives, deadline passes (the zero
	// time: never) or the endpoint closes, then hands deliver the
	// packets that are ready, at most max, in arrival order. deliver
	// borrows the payload: its bytes are the endpoint's again once
	// deliver returns (see the package doc). Poll returns how many
	// packets it delivered, and ErrClosed once the endpoint has closed.
	// One goroutine polls an endpoint at a time; a node's runner is
	// that goroutine, and sends between its polls never wait.
	Poll(deadline time.Time, max int, deliver func(from string, payload []byte)) (int, error)
	// Recv blocks until a packet arrives or the endpoint closes. The
	// returned Packet.Payload is owned by the caller, who may hand it
	// to ReleaseBuf once consumed (see the package doc).
	Recv() (Packet, error)
	// Close unregisters the endpoint and unblocks Poll and Recv.
	Close() error
}

// Fabric creates endpoints.
type Fabric interface {
	// Register creates an endpoint under addr. Registering an address
	// twice is an error until the first endpoint closes.
	Register(addr string) (Endpoint, error)
}

// ChanReceiver is the Endpoint extension of fabrics whose inbox is a Go
// channel: memnet's. Its Poll drains the channel; a reader that wants
// the queue itself (its depth, a select beside other channels) takes
// RecvChan.
type ChanReceiver interface {
	// RecvChan returns the endpoint's inbox. A packet read from it is
	// owned by the reader exactly as if Recv had returned it. The
	// channel is never closed; Closed signals shutdown instead, after
	// which any packets still queued may be drained.
	RecvChan() <-chan Packet
	// Closed is closed when the endpoint closes.
	Closed() <-chan struct{}
}

// Errors shared by fabric implementations.
var (
	ErrClosed       = errors.New("transport: endpoint closed")
	ErrUnknownPeer  = errors.New("transport: unknown peer")
	ErrAddrInUse    = errors.New("transport: address already registered")
	ErrEmptyAddress = errors.New("transport: empty address")
)

// ---------------------------------------------------------------- memnet

// MemFabric is an in-process fabric backed by per-endpoint buffered
// channels. A drop predicate supports failure injection in tests.
type MemFabric struct {
	mu    sync.Mutex
	peers map[string]*memEndpoint
	// drop, when set, is asked about every send (see SetDropFunc).
	drop func(from, to string) bool
	// queueLen is the per-endpoint inbox capacity.
	queueLen int
}

// NewMemFabric creates an in-process fabric. queueLen <= 0 selects a
// default inbox depth of 1024 packets.
func NewMemFabric(queueLen int) *MemFabric {
	if queueLen <= 0 {
		queueLen = 1024
	}
	return &MemFabric{peers: make(map[string]*memEndpoint), queueLen: queueLen}
}

// SetDropFunc installs a packet-drop predicate (nil disables): a packet
// from one address to another that it names is lost silently, like a
// datagram on a congested link. It runs on the sender's goroutine under
// no fabric lock.
func (f *MemFabric) SetDropFunc(fn func(from, to string) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.drop = fn
}

// Register implements Fabric.
func (f *MemFabric) Register(addr string) (Endpoint, error) {
	if addr == "" {
		return nil, ErrEmptyAddress
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.peers[addr]; ok {
		return nil, ErrAddrInUse
	}
	ep := &memEndpoint{
		fabric: f,
		addr:   addr,
		inbox:  make(chan Packet, f.queueLen),
		done:   make(chan struct{}),
	}
	f.peers[addr] = ep
	return ep, nil
}

// Disconnect forcibly removes an endpoint, simulating a node crash:
// subsequent sends to it fail and its Recv unblocks with ErrClosed.
func (f *MemFabric) Disconnect(addr string) {
	f.mu.Lock()
	ep := f.peers[addr]
	f.mu.Unlock()
	if ep != nil {
		ep.Close()
	}
}

type memEndpoint struct {
	fabric *MemFabric
	addr   string
	inbox  chan Packet

	closeOnce sync.Once
	done      chan struct{}

	timer deadlineTimer // Poll's, the polling goroutine's
}

func (e *memEndpoint) Addr() string { return e.addr }

// RecvChan and Closed implement ChanReceiver.
func (e *memEndpoint) RecvChan() <-chan Packet { return e.inbox }
func (e *memEndpoint) Closed() <-chan struct{} { return e.done }

// Send transfers payload ownership to the receiving endpoint's inbox.
func (e *memEndpoint) Send(to string, payload []byte) error {
	f := e.fabric
	f.mu.Lock()
	drop := f.drop
	peer := f.peers[to]
	f.mu.Unlock()
	if drop != nil && drop(e.addr, to) {
		Metrics.Drops.Inc()
		ReleaseBuf(payload) // silently lost, like a datagram
		return nil
	}
	if peer == nil {
		Metrics.SendErrors.Inc()
		ReleaseBuf(payload)
		return ErrUnknownPeer
	}
	countSend(payload)
	// No copy: Send transfers payload ownership (package doc), so the
	// receiver can be handed the sender's buffer directly.
	select {
	case peer.inbox <- Packet{From: e.addr, Payload: payload}:
		countRecv(payload, len(peer.inbox))
		return nil
	case <-peer.done:
		Metrics.SendErrors.Inc()
		ReleaseBuf(payload)
		return ErrUnknownPeer
	}
}

func (e *memEndpoint) Recv() (Packet, error) {
	select {
	case p := <-e.inbox:
		return p, nil
	case <-e.done:
		// Drain anything that raced with Close so shutdown is clean.
		select {
		case p := <-e.inbox:
			return p, nil
		default:
			return Packet{}, ErrClosed
		}
	}
}

// Poll implements Endpoint over the inbox channel.
func (e *memEndpoint) Poll(deadline time.Time, max int, deliver func(from string, payload []byte)) (int, error) {
	return pollChan(e.inbox, e.done, &e.timer, deadline, max, deliver)
}

// pollChan is Poll over a channel inbox: it waits for the first packet,
// then takes the packets already queued behind it, and recycles each
// payload once deliver has returned.
func pollChan(inbox <-chan Packet, done <-chan struct{}, t *deadlineTimer, deadline time.Time, max int, deliver func(from string, payload []byte)) (int, error) {
	var p Packet
	select {
	case p = <-inbox:
	default:
		expired := t.at(deadline)
		if expired == nil && !deadline.IsZero() {
			return 0, nil
		}
		select {
		case p = <-inbox:
		case <-done:
			return 0, ErrClosed
		case <-expired:
			t.due = time.Time{}
			return 0, nil
		}
	}
	n := 0
	for {
		deliver(p.From, p.Payload)
		ReleaseBuf(p.Payload)
		if n++; n == max {
			return n, nil
		}
		select {
		case p = <-inbox:
		default:
			return n, nil
		}
	}
}

// deadlineTimer is a channel poll's deadline. It stays armed across
// polls that wait for the same deadline, as a runner's do between two
// ticks, so such a poll costs no timer operation.
type deadlineTimer struct {
	t   *time.Timer
	due time.Time // what t is armed for; zero once it has fired and been taken
}

// at returns the channel that fires at deadline: nil for the zero
// deadline (never) and for one already past.
//
//ring:wallclock a poll waits in real time
func (t *deadlineTimer) at(deadline time.Time) <-chan time.Time {
	if deadline.IsZero() {
		return nil
	}
	if !deadline.Equal(t.due) {
		d := time.Until(deadline)
		if d <= 0 {
			return nil
		}
		t.arm(d)
		t.due = deadline
	}
	return t.t.C
}

// arm sets the timer to fire in d, draining a firing of its last
// deadline that nobody took.
func (t *deadlineTimer) arm(d time.Duration) {
	if t.t == nil {
		t.t = time.NewTimer(d)
		return
	}
	if !t.t.Stop() {
		select {
		case <-t.t.C:
		default:
		}
	}
	t.t.Reset(d)
}

func (e *memEndpoint) Close() error {
	e.closeOnce.Do(func() {
		f := e.fabric
		f.mu.Lock()
		if f.peers[e.addr] == e {
			delete(f.peers, e.addr)
		}
		f.mu.Unlock()
		close(e.done)
	})
	return nil
}
