package transport

import (
	"math/bits"
	"testing"
)

// TestSendCountersMove checks the transport instruments track sends,
// drops, and failures on the memnet fabric. Counters are process-wide,
// so assertions are on deltas.
func TestSendCountersMove(t *testing.T) {
	f := NewMemFabric(0)
	a, err := f.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	pkts0 := Metrics.PacketsSent.Load()
	bytes0 := Metrics.BytesSent.Load()
	recv0 := Metrics.PacketsRecv.Load()
	drops0 := Metrics.Drops.Load()
	errs0 := Metrics.SendErrors.Load()

	payload := []byte("hello-metrics")
	if err := a.Send("b", append([]byte(nil), payload...)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := Metrics.PacketsSent.Load() - pkts0; got != 1 {
		t.Fatalf("packets sent delta = %d", got)
	}
	if got := Metrics.BytesSent.Load() - bytes0; got != uint64(len(payload)) {
		t.Fatalf("bytes sent delta = %d", got)
	}
	if got := Metrics.PacketsRecv.Load() - recv0; got != 1 {
		t.Fatalf("packets recv delta = %d", got)
	}

	// An injected drop counts as a drop, not a send.
	f.SetDropFunc(func(from, to string) bool { return true })
	if err := a.Send("b", []byte("lost")); err != nil {
		t.Fatal(err)
	}
	f.SetDropFunc(nil)
	if got := Metrics.Drops.Load() - drops0; got != 1 {
		t.Fatalf("drops delta = %d", got)
	}
	if got := Metrics.PacketsSent.Load() - pkts0; got != 1 {
		t.Fatalf("dropped packet counted as sent: delta = %d", got)
	}

	// Unknown peers count as send errors.
	if err := a.Send("nobody", []byte("x")); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
	if got := Metrics.SendErrors.Load() - errs0; got != 1 {
		t.Fatalf("send errors delta = %d", got)
	}
	if got := Metrics.InboxHighWater.Load(); got < 1 {
		t.Fatalf("inbox high water = %d", got)
	}
}

// TestBufAllocBytesCountsMisses: Metrics.BufAllocBytes grows by the
// capacity of each buffer the pool did not have, by nothing for one it
// had, and by the size asked for past the largest class.
func TestBufAllocBytesCountsMisses(t *testing.T) {
	const size = 256 << 10 // a class the package's other tests leave alone
	c := bits.Len(uint(size-1)) - minBufShift
	for pooled(c) != nil {
	}
	before := Metrics.BufAllocBytes.Load()
	b := AcquireBufSize(size - 1)
	if got := Metrics.BufAllocBytes.Load() - before; got != uint64(cap(b)) || cap(b) != size {
		t.Fatalf("a miss of the %d-byte class counts %d bytes for a buffer of %d", size, got, cap(b))
	}
	// The race detector's pool drops some of what it is given: a hit is
	// the buffer given back coming out again.
	hits := 0
	for i := 0; i < 100 && hits < 10; i++ {
		ReleaseBuf(b)
		was := &b[:1][0]
		before = Metrics.BufAllocBytes.Load()
		b = AcquireBufSize(size)
		got := Metrics.BufAllocBytes.Load() - before
		switch {
		case &b[:1][0] == was:
			hits++
			if got != 0 {
				t.Fatalf("a hit counts %d bytes", got)
			}
		case got != size:
			t.Fatalf("a miss counts %d bytes for a buffer of %d", got, size)
		}
	}
	if hits == 0 {
		t.Fatal("no buffer given back came out of the pool again")
	}
	before = Metrics.BufAllocBytes.Load()
	big := AcquireBufSize(3<<20 + 5)
	if got := Metrics.BufAllocBytes.Load() - before; got != 3<<20+5 || cap(big) != 3<<20+5 {
		t.Fatalf("a %d-byte buffer past the largest class counts %d bytes", cap(big), got)
	}
}
