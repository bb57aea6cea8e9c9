package client

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/transport"
)

// tapFabric hands the clients dialled through it endpoints whose Send
// is the test's: it sees every packet a client sends, with the real
// endpoint to pass it on to, hold it back on, or not.
type tapFabric struct {
	transport.Fabric
	send func(ep transport.Endpoint, to string, payload []byte) error
}

func (f tapFabric) Register(addr string) (transport.Endpoint, error) {
	ep, err := f.Fabric.Register(addr)
	if err != nil {
		return nil, err
	}
	return tapEndpoint{ep, f.send}, nil
}

type tapEndpoint struct {
	transport.Endpoint
	send func(ep transport.Endpoint, to string, payload []byte) error
}

func (e tapEndpoint) Send(to string, payload []byte) error { return e.send(e.Endpoint, to, payload) }

// TestSyncOpsRunOnTheCaller: Put, Get and Delete send from the
// goroutine that called them. Seen from inside Send, the process has
// no more goroutines than it had before the call; a goroutine per
// operation would be one more.
func TestSyncOpsRunOnTheCaller(t *testing.T) {
	cl, err := core.StartCluster(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	var most atomic.Int64
	tap := tapFabric{cl.Fabric, func(ep transport.Endpoint, to string, payload []byte) error {
		if n := int64(runtime.NumGoroutine()); n > most.Load() {
			most.Store(n) // one sender at a time: the test is the only caller
		}
		return ep.Send(to, payload)
	}}
	c, err := Dial(tap, []string{core.NodeAddr(0)}, Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	val := make([]byte, 1024)
	if _, err := c.Put("warm", val); err != nil { // Dial's resolve goroutines are gone after a round trip
		t.Fatal(err)
	}
	most.Store(0)
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("caller-%d", i%50)
		switch i % 3 {
		case 0:
			_, err = c.Put(key, val)
		case 1:
			_, _, err = c.Get(key)
		case 2:
			err = c.Delete(key)
		}
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("op %d on %s: %v", i, key, err)
		}
	}
	if got := int(most.Load()); got > before {
		t.Errorf("%d goroutines while a synchronous operation was sending, %d before it was called", got, before)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines after 1000 synchronous operations, %d before", after, before)
	}
}

// burst is the fixture of the outbox tests: one fake node that answers
// every request with something only that request produces, and a client
// whose first packet after arm is held inside Send until the test has
// queued the callers it wants behind it.
type burst struct {
	t *testing.T
	c *Client

	answered atomic.Int64 // requests the node saw, resolves apart

	mu      sync.Mutex
	armed   bool
	packets [][]byte      // copies of what the client sent since arm
	entered chan struct{} // closed when the held Send is entered
	release chan struct{} // closed to let it go
	// then decides what becomes of the packets after the held one
	// (nil: they are sent).
	then func(n int) error
}

func newBurst(t *testing.T, timeout time.Duration) *burst {
	t.Helper()
	b := &burst{t: t, entered: make(chan struct{}), release: make(chan struct{})}
	cfg := &proto.Config{Epoch: 1, Leader: 0, Coords: []proto.NodeID{0}}
	fabric := fakeNodes(t, 1, func(_ proto.NodeID, m proto.Message) proto.Message {
		if r, ok := m.(*proto.Resolve); ok {
			return &proto.ResolveReply{Req: r.Req, Config: cfg}
		}
		b.answered.Add(1)
		switch r := m.(type) {
		case *proto.Put:
			return &proto.PutReply{Req: r.Req, Status: proto.StOK, Version: proto.Version(len(r.Value))}
		case *proto.Get:
			return &proto.GetReply{Req: r.Req, Status: proto.StOK, Version: 1, Value: []byte(r.Key)}
		}
		return replyTo(m, proto.StOK)
	})
	// One retry: what a test fails on purpose is retried once, and a
	// closed client gives up after one more look.
	c, err := Dial(tapFabric{fabric, b.send}, []string{core.NodeAddr(0)}, Options{Timeout: timeout, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	b.c = c
	return b
}

func (b *burst) send(ep transport.Endpoint, to string, payload []byte) error {
	b.mu.Lock()
	if !b.armed {
		b.mu.Unlock()
		return ep.Send(to, payload)
	}
	b.packets = append(b.packets, append([]byte(nil), payload...))
	n, then := len(b.packets), b.then
	b.mu.Unlock()
	if n == 1 {
		close(b.entered)
		<-b.release
	} else if then != nil {
		if err := then(n); err != nil {
			transport.ReleaseBuf(payload)
			return err
		}
	}
	return ep.Send(to, payload)
}

// queued is how many requests wait in the outbox of the one node.
func (b *burst) queued() int {
	b.c.mu.Lock()
	defer b.c.mu.Unlock()
	return len(b.c.outboxes[core.NodeAddr(0)].msgs)
}

// hold starts first and returns once its packet is inside Send, then
// starts the rest and returns once every one of them has queued behind
// it. Each caller reports on errs.
func (b *burst) hold(errs chan<- error, first func() error, rest ...func() error) {
	b.t.Helper()
	b.mu.Lock()
	b.armed = true
	b.mu.Unlock()
	go func() { errs <- first() }()
	<-b.entered
	for _, call := range rest {
		go func() { errs <- call() }()
	}
	for b.queued() < len(rest) {
		runtime.Gosched()
	}
}

// packed counts the messages one packet carries.
func packed(pkt []byte) (n int) {
	_ = proto.ForEachPacked(pkt, func([]byte) error { n++; return nil })
	return n
}

// ownGet and ownPut are calls whose reply shows whose it is: the fake
// node answers a get with its key and a put with its value's length.
func ownGet(get func(key string) ([]byte, proto.Version, error), i int) func() error {
	return func() error {
		key := fmt.Sprintf("burst-%d", i)
		val, _, err := get(key)
		if err == nil && string(val) != key {
			err = fmt.Errorf("get %s answered with %q", key, val)
		}
		return err
	}
}

func ownPut(put func(key string, value []byte) (proto.Version, error), i int) func() error {
	return func() error {
		ver, err := put(fmt.Sprintf("burst-%d", i), make([]byte, i+1))
		if err == nil && int(ver) != i+1 {
			err = fmt.Errorf("put of %d bytes answered with version %d", i+1, ver)
		}
		return err
	}
}

// TestBurstLeavesInOnePacket: while one packet is being written, the
// requests of every other caller queue behind it, whichever API they
// came through, and leave together in the next: 33 requests, 2 packets,
// and each caller gets the reply to its own request.
func TestBurstLeavesInOnePacket(t *testing.T) {
	b := newBurst(t, 5*time.Second)
	c := b.c
	p := c.NewPipeline(8)
	var rest []func() error
	for i := 1; i <= 32; i++ {
		switch i % 6 {
		case 0:
			rest = append(rest, ownGet(c.Get, i))
		case 1:
			rest = append(rest, ownPut(c.Put, i))
		case 2:
			rest = append(rest, func() error { return c.Delete("burst") })
		case 3:
			rest = append(rest, ownGet(func(k string) ([]byte, proto.Version, error) { return c.GetAsync(k).Wait() }, i))
		case 4:
			rest = append(rest, ownPut(func(k string, v []byte) (proto.Version, error) { return c.PutAsync(k, v).Wait() }, i))
		case 5:
			rest = append(rest, ownGet(func(k string) ([]byte, proto.Version, error) { return p.Get(k).Wait() }, i))
		}
	}
	requests, packets := Metrics.Requests.Load(), Metrics.Packets.Load()
	errs := make(chan error, 1+len(rest))
	b.hold(errs, ownGet(c.Get, 0), rest...)
	close(b.release)
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	requests, packets = Metrics.Requests.Load()-requests, Metrics.Packets.Load()-packets
	if requests != 33 || packets != 2 {
		t.Errorf("Metrics: %d requests in %d packets, want 33 in 2", requests, packets)
	}
	if len(b.packets) != 2 {
		t.Fatalf("the client sent %d packets, want 2", len(b.packets))
	}
	if proto.IsBatch(b.packets[0]) {
		t.Error("a lone request left in a TBatch frame, want its plain envelope")
	}
	if n := packed(b.packets[1]); n != 32 {
		t.Errorf("the second packet carries %d requests, want the 32 that queued behind the first", n)
	}
}

// TestFailedPacketFailsItsRequests: when a packet does not leave, every
// request in it learns so at once and goes through re-resolve-and-retry,
// not through its Timeout; each is answered once.
func TestFailedPacketFailsItsRequests(t *testing.T) {
	const callers = 8
	b := newBurst(t, time.Minute) // waiting a Timeout out would hang the test
	b.then = func(n int) error {
		if n == 2 {
			return transport.ErrUnknownPeer
		}
		return nil
	}
	var rest []func() error
	for i := 1; i <= callers; i++ {
		rest = append(rest, ownGet(b.c.Get, i))
	}
	retries, timeouts := Metrics.Retries.Load(), Metrics.Timeouts.Load()
	errs := make(chan error, 1+callers)
	b.hold(errs, ownGet(b.c.Get, 0), rest...)
	close(b.release)
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	retries, timeouts = Metrics.Retries.Load()-retries, Metrics.Timeouts.Load()-timeouts
	if retries != callers || timeouts != 0 {
		t.Errorf("%d retries and %d timeouts, want the %d requests of the failed packet retried once each", retries, timeouts, callers)
	}
	if got := b.answered.Load(); got != 1+callers {
		t.Errorf("the node answered %d requests, want %d: the held one and each retry, none twice", got, 1+callers)
	}
	b.c.mu.Lock()
	left := len(b.c.waiters)
	b.c.mu.Unlock()
	if left != 0 {
		t.Errorf("%d waiters left behind", left)
	}
}

// TestCloseFailsQueuedRequests: Close answers the requests that never
// left the outbox, and the one being sent, with transport.ErrClosed.
func TestCloseFailsQueuedRequests(t *testing.T) {
	const callers = 8
	b := newBurst(t, time.Minute)
	var rest []func() error
	for i := 1; i <= callers; i++ {
		rest = append(rest, ownPut(b.c.Put, i))
	}
	errs := make(chan error, 1+callers)
	b.hold(errs, ownGet(b.c.Get, 0), rest...)
	b.c.Close()
	for i := 0; i < callers; i++ {
		if err := <-errs; !errors.Is(err, transport.ErrClosed) {
			t.Errorf("a queued request ended with %v, want transport.ErrClosed", err)
		}
	}
	if n := b.queued(); n != 0 {
		t.Errorf("%d requests still in the outbox after their callers returned", n)
	}
	close(b.release)
	if err := <-errs; !errors.Is(err, transport.ErrClosed) {
		t.Errorf("the request being sent ended with %v, want transport.ErrClosed", err)
	}
}
