package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"ring/internal/testutil"
)

// TestOffsetPort: the one address rule. An IP literal, localhost or an
// empty host is accepted by OffsetPort, Listen and Dial alike; a name,
// a missing port or a port out of range is refused by all three with
// the same error.
func TestOffsetPort(t *testing.T) {
	for _, tc := range []struct{ addr, shifted string }{
		{"127.0.0.1:0", "127.0.0.1:2"},
		{"[::1]:0", "[::1]:2"},
		{"localhost:0", "localhost:2"},
		{":0", ":2"},
	} {
		if got, err := OffsetPort(tc.addr, 2); err != nil || got != tc.shifted {
			t.Errorf("OffsetPort(%q, 2) = %q, %v; want %q", tc.addr, got, err, tc.shifted)
		}
		l, err := Listen(tc.addr)
		if err != nil {
			t.Errorf("Listen(%q): %v", tc.addr, err)
			continue
		}
		to := strings.Replace(l.Addr(), "0.0.0.0:", "127.0.0.1:", 1)
		c, err := Dial(to)
		if err != nil {
			t.Errorf("Dial(%q), listening on %q: %v", to, tc.addr, err)
		} else {
			if s, err := l.Accept(); err != nil {
				t.Errorf("Accept on %q: %v", tc.addr, err)
			} else {
				s.Close()
			}
			c.Close()
		}
		l.Close()
	}
	for _, tc := range []struct{ addr, why string }{
		{"h0:7000", `host "h0" is not an IP address`},
		{"127.0.0.1", "missing port"},
		{"127.0.0.1:70000", `port "70000" is not in 0..65535`},
	} {
		_, err := OffsetPort(tc.addr, 0)
		_, lerr := Listen(tc.addr)
		_, derr := Dial(tc.addr)
		for _, e := range []error{err, lerr, derr} {
			if e == nil || !strings.Contains(e.Error(), tc.why) {
				t.Errorf("%q: %v, want an error saying %s", tc.addr, e, tc.why)
			}
		}
	}
	if _, err := OffsetPort("127.0.0.1:65535", 1); err == nil {
		t.Error("OffsetPort past port 65535 succeeded")
	}
}

// slowReader hands its reader's bytes over 64 KiB at a time, one read
// per tick.
type slowReader struct {
	r    io.Reader
	tick *time.Ticker
}

func (s slowReader) Read(p []byte) (int, error) {
	<-s.tick.C
	return s.r.Read(p[:min(len(p), 64<<10)])
}

// TestWritevOutlastsSlowReader: an 8 MiB frame does not fit in the
// socket buffers of a reader that reads a little every millisecond, so
// the write is cut short and waits for room many times; the frame
// arrives whole all the same.
func TestWritevOutlastsSlowReader(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	big := make([]byte, 8<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	sent := make(chan error, 1)
	go func() { sent <- writeFrame(c, "a", big) }()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	r, in, buf := slowReader{s, tick}, stream{}, make([]byte, readBuf)
	var from string
	var payload []byte
	for payload == nil {
		k, err := r.Read(in.space(buf))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := in.got(buf, k, 1, func(f string, p []byte) { from, payload = f, bytes.Clone(p) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if from != "a" || !bytes.Equal(payload, big) {
		t.Fatalf("frame from %q, %d bytes: not the 8 MiB sent", from, len(payload))
	}
}

// frame is a whole frame from sender from, as writeFrame sends it.
func frame(from string, payload []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(2+len(from)+len(payload)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(from)))
	return append(append(b, from...), payload...)
}

// TestCloseEndsReadLoops: Close of an endpoint closes every connection it
// has, accepted or dialled, and leaves no goroutine behind (off Linux,
// its accept loop and read loops end), while the peers on the other ends
// stay open; the peers read EOF.
func TestCloseEndsReadLoops(t *testing.T) {
	before := runtime.NumGoroutine()
	far, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	f := NewTCPFabric()
	f.Map("b", "127.0.0.1:0")
	f.Map("far", far.Addr())
	b, err := f.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var peers []*Conn
	for _, name := range []string{"p1", "p2"} {
		c, err := Dial(BoundAddr(b))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Writev([][]byte{frame(name, []byte("hi"))}); err != nil {
			t.Fatal(err)
		}
		if p, err := b.Recv(); err != nil || p.From != name {
			t.Fatalf("recv from %s: %+v, %v", name, p, err)
		}
		peers = append(peers, c)
	}
	if err := b.Send("far", []byte("out")); err != nil {
		t.Fatal(err)
	}
	d, err := far.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	peers = append(peers, d)

	b.Close()
	if !testutil.Eventually(2*time.Second, time.Millisecond, func() bool { return runtime.NumGoroutine() <= before }) {
		t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), before)
	}
	for i, c := range peers {
		_ = c.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.ReadAll(c); err != nil {
			t.Errorf("peer %d: %v, want EOF", i, err)
		}
	}
}

// TestDialClosedPortFails: a connect that is refused fails Dial within
// a second, every time. RawConn.Write forgets write readiness before it
// first calls its callback, so a Dial that waited before it looked would
// miss a refusal the poller had already taken, and hang; an echo pair
// kept busy meanwhile makes the poller run often enough that, over 300
// dials, it does take one first.
func TestDialClosedPortFails(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	l.Close()

	f := NewTCPFabric()
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
	f.Map("b", BoundAddr(b))
	go func() {
		for {
			p, err := b.Recv()
			if err != nil || b.Send(p.From, p.Payload) != nil {
				return
			}
		}
	}()
	go func() {
		for a.Send("b", []byte("ping")) == nil {
			if _, err := a.Recv(); err != nil {
				return
			}
		}
	}()

	for i := 0; i < 300; i++ {
		done := make(chan error, 1)
		go func() {
			c, err := Dial(addr)
			if err == nil {
				c.Close()
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("Dial(%s) with nothing listening succeeded", addr)
			}
		case <-time.After(time.Second):
			t.Fatalf("dial %d to %s, nothing listening: still waiting after 1 s", i, addr)
		}
	}
}
