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
// # Payload ownership
//
// Send transfers ownership of the payload slice to the transport: the
// caller must not read or modify it after Send returns, whether or
// not Send reported an error. This lets memnet hand the very same
// slice to the receiver instead of copying it, and tcpnet write it to
// the socket in place, the way an RDMA send posts a registered buffer
// rather than staging a copy. Symmetrically the receiver owns Recv's
// Packet.Payload outright and recycles it with ReleaseBuf once the
// packet is consumed.
//
// Consumed means more than decoded: proto.Decode may alias the payload
// (the byte fields of a decoded message are views into it), so a
// packet is consumed only when every handler of every message it
// carried has returned. The one rule: a handler that keeps bytes of a
// message past its return copies them; everything else reads the
// packet in place. AcquireBuf/AcquireBufSize/ReleaseBuf implement the
// recycling: senders encode into acquired buffers, receivers release
// consumed payloads, and the steady-state message path allocates
// nothing. All are optional — any fresh slice may be sent, and
// unreleased payloads are simply garbage collected.
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

// AcquireBuf returns an empty buffer for a caller that does not know
// how much it will append: the smallest buffer the pool holds, whatever
// its class, or a fresh 1 KiB one. Append to it, then pass the result to
// Send, which takes ownership. A caller that knows the size asks
// AcquireBufSize and stays in its class.
//
//ring:hotpath
func AcquireBuf() []byte {
	for c := range bufPools {
		if b := pooled(c); b != nil {
			return b
		}
	}
	return make([]byte, 0, minBuf)
}

// AcquireBufSize returns an empty buffer with room for n bytes.
//
//ring:hotpath
func AcquireBufSize(n int) []byte {
	c := 0
	if n > minBuf {
		c = bits.Len(uint(n-1)) - minBufShift
	}
	if c >= bufClasses {
		return make([]byte, 0, n)
	}
	if b := pooled(c); b != nil {
		return b
	}
	return make([]byte, 0, minBuf<<c)
}

// pooled takes a buffer out of class c, or returns nil if it is empty.
//
//ring:hotpath
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
//
//ring:hotpath
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
	// Recv blocks until a packet arrives or the endpoint closes. The
	// returned Packet.Payload is owned by the caller, who may hand it
	// to ReleaseBuf once consumed (see the package doc).
	Recv() (Packet, error)
	// Close unregisters the endpoint and unblocks Recv.
	Close() error
}

// Fabric creates endpoints.
type Fabric interface {
	// Register creates an endpoint under addr. Registering an address
	// twice is an error until the first endpoint closes.
	Register(addr string) (Endpoint, error)
}

// ChanReceiver is the Endpoint extension of fabrics whose inbox is a Go
// channel: both of this package's, and what a node's runner requires.
// Event loops select on RecvChan directly instead of dedicating a
// forwarder goroutine to blocking Recv calls — one less goroutine
// handoff on every packet, which on the in-process fabric is a large
// share of per-message cost.
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
// channels. A Drop hook and per-endpoint partitions support failure
// injection in tests.
type MemFabric struct {
	mu    sync.Mutex
	peers map[string]*memEndpoint
	// faultFn, when set, is consulted for every send and may drop,
	// delay, or duplicate the packet (see FaultFunc).
	faultFn FaultFunc
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

// SetDropFunc installs a packet-drop predicate (nil disables). It is
// the boolean special case of SetFaultFunc, kept for the existing
// partition and message-loss tests.
func (f *MemFabric) SetDropFunc(fn func(from, to string) bool) {
	if fn == nil {
		f.SetFaultFunc(nil)
		return
	}
	f.SetFaultFunc(func(from, to string, _ int) FaultAction {
		return FaultAction{Drop: fn(from, to)}
	})
}

// SetFaultFunc implements FaultInjector (nil disables).
func (f *MemFabric) SetFaultFunc(fn FaultFunc) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faultFn = fn
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
}

func (e *memEndpoint) Addr() string { return e.addr }

// RecvChan and Closed implement ChanReceiver.
func (e *memEndpoint) RecvChan() <-chan Packet { return e.inbox }
func (e *memEndpoint) Closed() <-chan struct{} { return e.done }

// Send transfers payload ownership to the receiving endpoint's inbox.
//
//ring:hotpath
func (e *memEndpoint) Send(to string, payload []byte) error {
	f := e.fabric
	f.mu.Lock()
	fn := f.faultFn
	peer := f.peers[to]
	f.mu.Unlock()
	var act FaultAction
	if fn != nil {
		act = fn(e.addr, to, len(payload))
	}
	if act.Drop {
		Metrics.Drops.Inc()
		ReleaseBuf(payload) // silently lost, like a datagram
		return nil
	}
	if peer == nil {
		Metrics.SendErrors.Inc()
		ReleaseBuf(payload)
		return ErrUnknownPeer
	}
	if act.Duplicate {
		// The duplicate needs its own allocation: ownership of each
		// delivered payload transfers to the receiver independently.
		Metrics.Duplicates.Inc()
		dup := append([]byte(nil), payload...)
		e.deliver(peer, dup)
	}
	if act.Delay > 0 {
		Metrics.Delays.Inc()
		time.AfterFunc(act.Delay, func() { e.deliver(peer, payload) })
		return nil
	}
	return e.deliver(peer, payload)
}

// deliver enqueues payload into peer's inbox, transferring ownership.
//
//ring:hotpath
func (e *memEndpoint) deliver(peer *memEndpoint, payload []byte) error {
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
