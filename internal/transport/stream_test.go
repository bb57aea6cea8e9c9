package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// wireFrame is one frame as a one-shot parse reads it.
type wireFrame struct {
	from    string
	payload string
}

// parseFrames is the one-shot parse: every whole frame of b in order,
// and whether b goes on with a header no sender writes (a declared
// length over maxFrame, or an address longer than its frame).
func parseFrames(b []byte) (frames []wireFrame, bad bool) {
	for len(b) >= 6 {
		n := int(binary.BigEndian.Uint32(b))
		alen := int(binary.BigEndian.Uint16(b[4:]))
		if n > maxFrame || 2+alen > n {
			return frames, true
		}
		if len(b) < 4+n {
			break
		}
		frames = append(frames, wireFrame{string(b[6 : 6+alen]), string(b[6+alen : 4+n])})
		b = b[4+n:]
	}
	return frames, false
}

// fuzzConn is one connection of FuzzFrameStream: what is left to read
// and what its stream delivered.
type fuzzConn struct {
	data []byte
	in   stream
	got  []wireFrame
	err  error
}

// FuzzFrameStream: two connections' bytes, read in pieces the fuzzer
// chooses into one small shared buffer, a batch of at most a few frames
// at a time, yield on each connection exactly the frames a one-shot
// parse of its bytes yields, each payload capped at its declared length,
// and end in the error the parse ends in, if any. A read into a frame's
// own buffer never asks for more than the frame has left.
func FuzzFrameStream(f *testing.F) {
	var two, big []byte
	two = append(frame("node/1", []byte("hello")), frame("node/1", nil)...)
	big = frame("client/42", bytes.Repeat([]byte{7}, 300))
	f.Add(two, big, []byte{16, 3, 5, 2, 200, 9})
	f.Add(big, two, []byte{64, 1, 255, 254, 3})
	f.Add(append(two, 0, 0, 0, 3, 0, 9, 'x'), big, []byte{8, 2, 0, 1})
	f.Add(append(big, 0xff, 0xff, 0xff, 0xff, 0, 1), two, []byte{32, 4})
	f.Fuzz(func(t *testing.T, a, b, plan []byte) {
		bufSize, batch := 8, 1
		if len(plan) > 0 {
			bufSize, batch = 8+int(plan[0]), 1+int(plan[0]%3)
			plan = plan[1:]
		}
		buf := make([]byte, bufSize)
		conns := []*fuzzConn{{data: a}, {data: b}}
		var rest []byte
		var restOf *fuzzConn
		deliverTo := func(c *fuzzConn) func(string, []byte) {
			return func(from string, payload []byte) {
				if cap(payload) != len(payload) {
					t.Fatalf("a %d-byte payload reaches %d bytes past its end", len(payload), cap(payload)-len(payload))
				}
				c.got = append(c.got, wireFrame{from, string(payload)})
			}
		}
		for step := 0; ; step++ {
			if len(rest) > 0 {
				var err error
				if rest, _, err = restOf.in.cut(rest, batch, deliverTo(restOf)); err != nil {
					restOf.err, rest = err, nil
				}
				continue
			}
			// The plan picks the connection and the read's length; past its
			// end, reads take what fits.
			pick, want := step%2, bufSize
			if step < len(plan) {
				pick, want = int(plan[step]&1), 1+int(plan[step]>>1)
			}
			c := conns[pick]
			if c.err != nil || len(c.data) == 0 {
				c = conns[1-pick]
			}
			if c.err != nil || len(c.data) == 0 {
				break
			}
			dst := c.in.space(buf)
			if c.in.into {
				if size, _ := frameHead(c.in.carry); len(c.in.carry)+len(dst) > size {
					t.Fatalf("a read into a %d-byte frame's buffer asks for %d bytes past it", size, len(c.in.carry)+len(dst)-size)
				}
			}
			k := copy(dst, c.data[:min(want, len(c.data))])
			c.data = c.data[k:]
			var err error
			if rest, _, err = c.in.got(buf, k, batch, deliverTo(c)); err != nil {
				c.err, rest = err, nil
			}
			restOf = c
		}
		for i, c := range conns {
			want, bad := parseFrames([][]byte{a, b}[i])
			if (c.err != nil) != bad || c.err != nil && !strings.Contains(c.err.Error(), "bad frame") {
				t.Fatalf("connection %d ends in %v; the one-shot parse finds a bad header: %v", i, c.err, bad)
			}
			if len(c.got) != len(want) {
				t.Fatalf("connection %d: %d frames, the one-shot parse %d", i, len(c.got), len(want))
			}
			for j := range want {
				if c.got[j] != want[j] {
					t.Fatalf("connection %d frame %d: %q from %q, the one-shot parse %q from %q",
						i, j, c.got[j].payload, c.got[j].from, want[j].payload, want[j].from)
				}
			}
		}
	})
}

// TestMutualFloodsDoNotDeadlock: two endpoints that poll like runners
// each send the other 16 MiB, in 8 MiB frames, before either reads. No
// socket buffer holds that, so a send that waited for room would wait
// for a peer that is itself waiting; a send on a polled endpoint leaves
// what does not fit queued for EPOLLOUT, and both floods arrive whole.
func TestMutualFloodsDoNotDeadlock(t *testing.T) {
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
	f.Map("a", BoundAddr(a))
	f.Map("b", BoundAddr(b))

	const frames, size = 2, 8 << 20
	big := make([]byte, size)
	for i := range big {
		big[i] = byte(i * 13)
	}
	done := make(chan error, 2)
	var got atomic.Int32 // frames arrived, both sides
	for _, side := range []struct {
		ep Endpoint
		to string
	}{{a, "b"}, {b, "a"}} {
		go func(ep Endpoint, to string) {
			// A runner polls before it sends anything.
			if _, err := ep.Poll(time.Now(), 1, func(string, []byte) {}); err != nil {
				done <- err
				return
			}
			for i := 0; i < frames; i++ {
				if err := ep.Send(to, append(AcquireBufSize(size), big...)); err != nil {
					done <- err
					return
				}
			}
			// Like a runner, each polls on until neither has anything left
			// to send: what a full socket held back leaves on EPOLLOUT.
			torn := false
			for got.Load() < 2*frames {
				n, err := ep.Poll(time.Now().Add(10*time.Millisecond), 1, func(from string, p []byte) {
					torn = torn || from != to || !bytes.Equal(p, big)
				})
				if err != nil {
					done <- err
					return
				}
				got.Add(int32(n))
			}
			if torn {
				done <- errors.New("a frame arrived torn or from the wrong sender")
				return
			}
			done <- nil
		}(side.ep, side.to)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("two endpoints flooding each other are still stuck after 30 s")
		}
	}
}

// TestMaxPacketFitsReadBuffer: the frame of a MaxPacket payload from
// the longest address a sender has, a client's, fills the read buffer
// exactly and is delivered from it in place, with nothing carried; one
// byte more and the frame is read into a buffer of its own.
func TestMaxPacketFitsReadBuffer(t *testing.T) {
	from := fmt.Sprintf("client/%016x", uint64(math.MaxUint64))
	if len(from) != longestAddr {
		t.Fatalf("a client's address is %d bytes, longestAddr says %d", len(from), longestAddr)
	}
	buf := make([]byte, readBuf)
	for _, extra := range []int{0, 1} {
		f := frame(from, make([]byte, MaxPacket+extra))
		if extra == 0 && len(f) != readBuf {
			t.Fatalf("a MaxPacket frame is %d bytes, the read buffer %d", len(f), readBuf)
		}
		var s stream
		n, carried := 0, false
		for len(f) > 0 {
			dst := s.space(buf)
			carried = carried || s.into
			k := copy(dst, f)
			f = f[k:]
			_, got, err := s.got(buf, k, 1, func(string, []byte) {})
			if err != nil {
				t.Fatal(err)
			}
			n += got
		}
		if n != 1 || s.carry != nil || carried != (extra > 0) {
			t.Fatalf("a frame of a %d-byte payload: %d delivered, read into a buffer of its own: %v, %d bytes left carried", MaxPacket+extra, n, carried, len(s.carry))
		}
	}
}

// TestRemainderFramesDoNotAllocate pins the path of the frames a Poll's
// max leaves in the read buffer: a sender writes many small frames,
// which arrive in one read, and the receiver polls them one at a time,
// so all but the first are delivered from what the read left over. Only
// the polls are counted: the sends take pooled buffers, of which the
// race detector's pool drops some.
func TestRemainderFramesDoNotAllocate(t *testing.T) {
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
	f.Map("b", BoundAddr(b))

	const rounds, frames = 20, 256
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	payload := make([]byte, 16)
	deliver := func(string, []byte) {}
	var mallocs uint64
	for r := 0; r <= rounds; r++ { // round 0 dials and warms up
		for i := 0; i < frames; i++ {
			if err := a.Send("b", append(AcquireBufSize(len(payload)), payload...)); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for got := 0; got < frames; {
			n, err := b.Poll(time.Now().Add(10*time.Second), 1, deliver)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatalf("%d of %d frames arrived", got, frames)
			}
			got += n
		}
		runtime.ReadMemStats(&after)
		if r > 0 {
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	perFrame := float64(mallocs) / (rounds * frames)
	t.Logf("%.3f allocations per frame", perFrame)
	if perFrame >= 0.1 {
		t.Errorf("%d 16-byte frames polled one at a time make %.3f allocations per frame, want < 0.1", frames, perFrame)
	}
}
