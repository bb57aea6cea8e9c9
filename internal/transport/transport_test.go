package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func TestMemFabricBasic(t *testing.T) {
	f := NewMemFabric(0)
	a, err := f.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	if a.Addr() != "a" {
		t.Fatalf("Addr = %q", a.Addr())
	}
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	p, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if p.From != "a" || string(p.Payload) != "hello" {
		t.Fatalf("got %+v", p)
	}
}

func TestMemFabricDuplicateRegister(t *testing.T) {
	f := NewMemFabric(0)
	if _, err := f.Register(""); err != ErrEmptyAddress {
		t.Fatalf("empty: %v", err)
	}
	if _, err := f.Register("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Register("x"); err != ErrAddrInUse {
		t.Fatalf("dup: %v", err)
	}
}

func TestMemFabricUnknownPeer(t *testing.T) {
	f := NewMemFabric(0)
	a, _ := f.Register("a")
	if err := a.Send("ghost", []byte("x")); err != ErrUnknownPeer {
		t.Fatalf("want ErrUnknownPeer, got %v", err)
	}
}

func TestMemFabricCloseUnblocksRecv(t *testing.T) {
	f := NewMemFabric(0)
	a, _ := f.Register("a")
	errc := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		errc <- err
	}()
	// No need to wait for Recv to block first: whether Close lands
	// before or after Recv parks, the contract is the same ErrClosed.
	a.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
	// Address becomes reusable after close.
	if _, err := f.Register("a"); err != nil {
		t.Fatalf("re-register after close: %v", err)
	}
}

func TestMemFabricZeroCopyOwnership(t *testing.T) {
	f := NewMemFabric(0)
	a, _ := f.Register("a")
	b, _ := f.Register("b")
	buf := append(AcquireBuf(), "abc"...)
	a.Send("b", buf)
	p, _ := b.Recv()
	if string(p.Payload) != "abc" {
		t.Fatalf("payload = %q", p.Payload)
	}
	// Ownership transfer: memnet hands the receiver the sender's very
	// slice instead of a copy.
	if &p.Payload[0] != &buf[0] {
		t.Fatal("memnet copied the payload; Send should transfer ownership")
	}
	ReleaseBuf(p.Payload)
}

func TestBufPoolRecycles(t *testing.T) {
	b := append(AcquireBuf(), make([]byte, 512)...)
	ReleaseBuf(b)
	got := AcquireBuf()
	if len(got) != 0 {
		t.Fatalf("acquired buffer not empty: len %d", len(got))
	}
	// Not guaranteed by sync.Pool, but overwhelmingly likely in a
	// single-goroutine test; detects a Release that loses capacity.
	if cap(got) < 512 {
		t.Logf("pool did not recycle (cap %d); allowed but unexpected", cap(got))
	}
	ReleaseBuf(got)
	ReleaseBuf(nil) // zero-cap release must be a no-op
}

// TestBufPoolSizeClasses: whatever capacities are released into the
// pool, an acquire is never handed a buffer smaller than it asked for.
func TestBufPoolSizeClasses(t *testing.T) {
	sizes := []int{0, 1, 40, 1024, 1025, 4096, 16384, 16384 + 67, 1 << 20, 1<<20 + 1, 3 << 20}
	for round := 0; round < 3; round++ {
		// Odd capacities, as append growth and sub-sliced frames produce.
		for _, c := range []int{0, 100, 1023, 1024, 5000, 16383, 16385, 40000, 1<<21 - 1, 1 << 21, 5 << 20} {
			ReleaseBuf(make([]byte, 0, c))
		}
		for _, n := range sizes {
			b := AcquireBufSize(n)
			if len(b) != 0 || cap(b) < n {
				t.Fatalf("AcquireBufSize(%d): len %d cap %d", n, len(b), cap(b))
			}
			defer ReleaseBuf(b)
		}
	}
}

func TestMemFabricDropFunc(t *testing.T) {
	f := NewMemFabric(0)
	a, _ := f.Register("a")
	b, _ := f.Register("b")
	f.SetDropFunc(func(from, to string) bool { return to == "b" })
	if err := a.Send("b", []byte("lost")); err != nil {
		t.Fatalf("dropped send must not error: %v", err)
	}
	f.SetDropFunc(nil)
	a.Send("b", []byte("kept"))
	p, _ := b.Recv()
	if string(p.Payload) != "kept" {
		t.Fatalf("got %q, drop predicate leaked a packet", p.Payload)
	}
}

// TestMemDropFuncStillWorks: the predicate is asked per packet with
// its sender and destination, so it takes one link and spares the rest.
func TestMemDropFuncStillWorks(t *testing.T) {
	f := NewMemFabric(0)
	a, _ := f.Register("a")
	b, _ := f.Register("b")
	c, _ := f.Register("c")
	f.SetDropFunc(func(from, to string) bool { return from == "a" && to == "b" })
	a.Send("b", []byte("lost"))
	a.Send("c", []byte("to c"))
	b.Send("c", []byte("from b"))
	f.SetDropFunc(nil)
	a.Send("b", []byte("kept"))
	for _, want := range []struct {
		ep   Endpoint
		from string
		body string
	}{{c, "a", "to c"}, {c, "b", "from b"}, {b, "a", "kept"}} {
		if p, _ := want.ep.Recv(); p.From != want.from || string(p.Payload) != want.body {
			t.Fatalf("%s received %q from %s, want %q from %s", want.ep.Addr(), p.Payload, p.From, want.body, want.from)
		}
	}
}

func TestMemFabricDisconnect(t *testing.T) {
	f := NewMemFabric(0)
	a, _ := f.Register("a")
	f.Register("b")
	f.Disconnect("b")
	if err := a.Send("b", []byte("x")); err != ErrUnknownPeer {
		t.Fatalf("send to disconnected: %v", err)
	}
}

func TestMemFabricConcurrentSenders(t *testing.T) {
	f := NewMemFabric(4096)
	dst, _ := f.Register("dst")
	const senders, per = 8, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ep, err := f.Register(fmt.Sprintf("s%d", s))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < per; i++ {
				if err := ep.Send("dst", []byte{byte(s), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	got := make(map[string]int)
	for i := 0; i < senders*per; i++ {
		p, err := dst.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got[p.From]++
	}
	wg.Wait()
	for s := 0; s < senders; s++ {
		if got[fmt.Sprintf("s%d", s)] != per {
			t.Fatalf("sender %d delivered %d of %d", s, got[fmt.Sprintf("s%d", s)], per)
		}
	}
}

func TestTCPFabricRoundTrip(t *testing.T) {
	f := NewTCPFabric()
	f.Map("a", "127.0.0.1:0")
	f.Map("b", "127.0.0.1:0")
	a, err := f.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := f.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Re-map logical names to the actually bound ports.
	f.Map("a", BoundAddr(a))
	f.Map("b", BoundAddr(b))

	if err := a.Send("b", []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	p, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if p.From != "a" || string(p.Payload) != "over tcp" {
		t.Fatalf("got %+v", p)
	}
	// Reply path exercises the reverse connection.
	if err := b.Send("a", []byte("pong")); err != nil {
		t.Fatal(err)
	}
	p, err = a.Recv()
	if err != nil || string(p.Payload) != "pong" {
		t.Fatalf("reply: %v %q", err, p.Payload)
	}
}

func TestTCPFabricLargeAndMany(t *testing.T) {
	f := NewTCPFabric()
	f.Map("a", "127.0.0.1:0")
	f.Map("b", "127.0.0.1:0")
	a, _ := f.Register("a")
	defer a.Close()
	b, _ := f.Register("b")
	defer b.Close()
	f.Map("a", BoundAddr(a))
	f.Map("b", BoundAddr(b))

	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	// What b has not read waits in the kernel, whose buffers do not hold
	// 10 MiB: the sends run beside the reads.
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < 10; i++ {
			// Send transfers ownership, so each send gets its own copy.
			if err := a.Send("b", append(AcquireBuf(), big...)); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for i := 0; i < 10; i++ {
		p, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Payload, big) {
			t.Fatalf("frame %d corrupted", i)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestTCPFabricFramesStayWhole: concurrent senders share one socket and
// write header and payload as a two-part vector; every frame must still
// arrive whole, whatever mix of size classes is in flight, and a peer
// that sends a malformed frame loses its own connection only.
func TestTCPFabricFramesStayWhole(t *testing.T) {
	f := NewTCPFabric()
	f.Map("b", "127.0.0.1:0")
	a, _ := f.Register("a")
	defer a.Close()
	b, _ := f.Register("b")
	defer b.Close()
	f.Map("b", BoundAddr(b))

	// A stranger whose frame claims a longer address than the frame.
	bad, err := net.Dial("tcp", BoundAddr(b))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write([]byte{0, 0, 0, 3, 0, 9, 'x'}); err != nil {
		t.Fatal(err)
	}

	const senders, perSender = 8, 200
	sizes := []int{0, 1, 40, 1000, 1024, 5000, 16384 + 67, 70000}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				n := sizes[(s+i)%len(sizes)]
				buf := AcquireBufSize(n + 1)
				buf = append(buf, byte(s))
				for j := 0; j < n; j++ {
					buf = append(buf, byte(s+n))
				}
				if err := a.Send("b", buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	for got := 0; got < senders*perSender; got++ {
		p, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if p.From != "a" || len(p.Payload) == 0 {
			t.Fatalf("frame %d: from %q, %d bytes", got, p.From, len(p.Payload))
		}
		s, n := int(p.Payload[0]), len(p.Payload)-1
		for _, c := range p.Payload[1:] {
			if c != byte(s+n) {
				t.Fatalf("frame %d (sender %d, %d bytes) is torn", got, s, n)
			}
		}
		ReleaseBuf(p.Payload)
	}
	wg.Wait()
}

func TestTCPFabricReplyRouting(t *testing.T) {
	// A peer with no dialable mapping (a client on an ephemeral port)
	// must still receive replies: the server routes them back over the
	// inbound connection.
	f := NewTCPFabric()
	f.Map("server", "127.0.0.1:0")
	srv, err := f.Register("server")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	f.Map("server", BoundAddr(srv))

	cf := NewTCPFabric()
	cf.Map("client/1", "127.0.0.1:0")
	cf.Map("server", BoundAddr(srv))
	cli, err := cf.Register("client/1")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.Send("server", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	p, err := srv.Recv()
	if err != nil || string(p.Payload) != "ping" {
		t.Fatalf("server recv: %v %q", err, p.Payload)
	}
	// Note: the server has no mapping for "client/1".
	if err := srv.Send(p.From, []byte("pong")); err != nil {
		t.Fatalf("reply over inbound connection: %v", err)
	}
	rp, err := cli.Recv()
	if err != nil || string(rp.Payload) != "pong" {
		t.Fatalf("client recv: %v %q", err, rp.Payload)
	}
}

func TestTCPFabricUnknownPeer(t *testing.T) {
	f := NewTCPFabric()
	f.Map("a", "127.0.0.1:0")
	a, _ := f.Register("a")
	defer a.Close()
	f.Map("dead", "127.0.0.1:1") // nothing listens there
	if err := a.Send("dead", []byte("x")); err == nil {
		t.Fatal("send to dead peer succeeded")
	}
}

func BenchmarkMemFabricRoundTrip(b *testing.B) {
	f := NewMemFabric(0)
	a, _ := f.Register("a")
	dst, _ := f.Register("b")
	go func() {
		for {
			p, err := dst.Recv()
			if err != nil {
				return
			}
			dst.Send(p.From, p.Payload)
		}
	}()
	var src [1024]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := append(AcquireBuf(), src[:]...)
		if err := a.Send("b", buf); err != nil {
			b.Fatal(err)
		}
		p, err := a.Recv()
		if err != nil {
			b.Fatal(err)
		}
		ReleaseBuf(p.Payload)
	}
	b.StopTimer()
	dst.Close()
}

// TestEndpointsAreChanReceivers: a memnet endpoint hands a reader its
// inbox itself, so it can select on packets beside other channels; the
// channel delivers what Recv would have, and Close fires Closed without
// closing the inbox. (tcpnet's inbox is the kernel's socket buffers:
// only Poll reads it.)
func TestEndpointsAreChanReceivers(t *testing.T) {
	t.Run("memnet", func(t *testing.T) {
		f := NewMemFabric(0)
		a, err := f.Register("a")
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b, err := f.Register("b")
		if err != nil {
			t.Fatal(err)
		}
		cr, ok := b.(ChanReceiver)
		if !ok {
			t.Fatalf("%T does not implement ChanReceiver", b)
		}
		if err := a.Send("b", []byte("into the inbox")); err != nil {
			t.Fatal(err)
		}
		select {
		case p := <-cr.RecvChan():
			if p.From != "a" || string(p.Payload) != "into the inbox" {
				t.Fatalf("got %+v", p)
			}
		case <-cr.Closed():
			t.Fatal("Closed fired on an open endpoint")
		case <-time.After(5 * time.Second):
			t.Fatal("nothing arrived on RecvChan")
		}
		b.Close()
		select {
		case <-cr.Closed():
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not fire Closed")
		}
		select {
		case p, open := <-cr.RecvChan():
			t.Fatalf("the inbox of a closed endpoint yields %+v (open=%v)", p, open)
		default:
		}
	})
}

// TestRestartedPeerIsDialledAgain: a peer that was only ever reached
// over its own inbound connection (b dialled a; a never dialled b) is
// dialled once that connection is dead, instead of being written to on
// the closed socket for ever. One send may be lost finding out.
func TestRestartedPeerIsDialledAgain(t *testing.T) {
	f := NewTCPFabric()
	f.Map("a", "127.0.0.1:0")
	f.Map("b", "127.0.0.1:0")
	a, err := f.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := f.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	f.Map("a", BoundAddr(a))
	f.Map("b", BoundAddr(b))

	if err := b.Send("a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("over b's connection")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}

	// b restarts on the same address.
	b.Close()
	b2, err := f.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	got := make(chan Packet, 1)
	go func() {
		if p, err := b2.Recv(); err == nil {
			got <- p
		}
	}()
	// a learns of the dead connection from its read loop or from one
	// failed write, whichever comes first; either way it dials.
	for i := 0; i < 20; i++ {
		if err := a.Send("b", []byte("again")); err != nil {
			continue
		}
		select {
		case p := <-got:
			if p.From != "a" || string(p.Payload) != "again" {
				t.Fatalf("got %+v", p)
			}
			return
		case <-time.After(100 * time.Millisecond):
			// Written into the dying socket before its reset arrived.
		}
	}
	t.Fatal("20 sends after the restart and a never dialled b")
}
