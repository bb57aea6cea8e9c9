package proto

import (
	"bytes"
	"math"
	"testing"
)

// Allocation-regression tests: the message hot path is pinned at its
// allocation counts so refactors cannot quietly reintroduce per-message
// garbage. AppendEncode into a warm buffer must be allocation-free;
// Decode pays exactly one allocation for the message struct plus one
// per string it copies out; byte payloads are views into the input.

// TestAppendEncodeAllocs pins every wire type's encode: into a warm
// buffer it allocates nothing.
func TestAppendEncodeAllocs(t *testing.T) {
	buf := make([]byte, 0, 8192)
	for _, s := range samples(t) {
		allocs := testing.AllocsPerRun(100, func() {
			buf = AppendEncode(buf[:0], s.m)
		})
		if allocs != 0 {
			t.Errorf("AppendEncode(%T): %.1f allocs/op into a warm buffer, want 0", s.m, allocs)
		}
	}
}

func TestAppendBatchAllocs(t *testing.T) {
	grp := []Message{
		&RepCommit{Memgest: 2, Shard: 1, Seq: 9},
		&Purge{Memgest: 2, Shard: 1, Key: "bench-key", Version: 2},
	}
	buf := make([]byte, 0, 8192)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendBatch(buf[:0], grp...)
	})
	if allocs != 0 {
		t.Errorf("AppendBatch: %.1f allocs/op into a warm buffer, want 0", allocs)
	}
}

func TestDecodeAllocs(t *testing.T) {
	// Decode allocates the message struct and a copy of each string —
	// nothing else, and nothing value-sized: payloads alias the input.
	// The counts below are ceilings: raise them only with a wire-format
	// change that justifies it.
	cases := []struct {
		name string
		m    Message
		max  float64
	}{
		{"Put1KiB", &Put{Req: 1, Key: "bench-key", Value: make([]byte, 1024), Memgest: 2}, 2},       // struct + key
		{"PutReply", &PutReply{Req: 1, Status: StOK, Version: 3}, 1},                                // struct only
		{"RepCommit", &RepCommit{Memgest: 2, Shard: 1, Seq: 9}, 1},                                  // struct only
		{"GetReply1KiB", &GetReply{Req: 1, Status: StOK, Version: 3, Value: make([]byte, 1024)}, 1}, // struct only
	}
	for _, tc := range cases {
		enc := Encode(tc.m)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Decode(enc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("Decode(%s): %.1f allocs/op, want <= %.0f", tc.name, allocs, tc.max)
		}
	}
}

// TestReleasedMessagesAreReused pins every wire type's decode, and
// the free lists: a message decoded or built with New and then
// released — a node's runner's loop — costs nothing but the strings
// Decode copies out when its type is free-listed (the struct is the
// one given back), and its struct and slices when it is not.
func TestReleasedMessagesAreReused(t *testing.T) {
	for _, s := range samples(t) {
		enc := Encode(s.m)
		allocs := testing.AllocsPerRun(100, func() {
			m, err := Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			Release(m)
		})
		if allocs > s.decode {
			t.Errorf("Decode and Release of %T: %.1f allocs/op, want <= %.0f", s.m, allocs, s.decode)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { Release(New(PutReply{Req: 1, Version: 3})) }); allocs != 0 {
		t.Errorf("New and Release of a PutReply: %.1f allocs/op, want 0", allocs)
	}
}

func TestEncodeDecodeRoundTripAllocs(t *testing.T) {
	// The full round trip a live put pays per hop: encode into a warm
	// buffer, then decode. Pinned so the end-to-end message cost stays
	// at the decoded struct and its key.
	m := &Put{Req: 1, Key: "bench-key", Value: make([]byte, 1024), Memgest: 2}
	buf := make([]byte, 0, 8192)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendEncode(buf[:0], m)
		if _, err := Decode(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("round trip: %.1f allocs/op, want <= 2", allocs)
	}
}

// TestDecodeViewsAliasInput pins the other half of the no-copy decode:
// a payload field is a view into the buffer handed to Decode (so the
// buffer's owner decides its lifetime), clipped so that appending to it
// cannot run into the fields that follow it in the packet.
func TestDecodeViewsAliasInput(t *testing.T) {
	enc := Encode(&Put{Req: 1, Key: "k", Value: []byte("value"), Memgest: 7})
	m, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	put := m.(*Put)
	if len(put.Value) != 5 || cap(put.Value) != 5 {
		t.Fatalf("view has len %d cap %d, want 5/5", len(put.Value), cap(put.Value))
	}
	at := bytes.Index(enc, []byte("value"))
	if at < 0 {
		t.Fatalf("value not found in %x", enc)
	}
	enc[at] ^= 0xFF // first byte of the value inside the packet
	if put.Value[0] != 'v'^0xFF {
		t.Fatal("Put.Value is a copy; Decode should alias its input")
	}
	if put.Key != "k" || put.Memgest != 7 {
		t.Fatalf("fixed fields and strings must be copied out: %+v", put)
	}
}

// TestSizeHintBoundsPayloadMessages: for every message that carries a
// payload or a metadata table, SizeHint covers the encoded size plus
// AppendBatch's framing, so a buffer acquired from the hint is never
// regrown and a packet Pack closes on hints fits transport.MaxPacket.
func TestSizeHintBoundsPayloadMessages(t *testing.T) {
	key := "a-key-of-ordinary-length"
	rec := MetaRecord{Key: key, Version: 3, Memgest: 2, Length: 1 << 14, LocBlock: 9, LocOff: 77}
	// Records whose every field is at its widest varint.
	widest := make([]MetaRecord, 1<<6)
	for i := range widest {
		widest[i] = MetaRecord{Key: key, Version: math.MaxUint64, Memgest: math.MaxUint32, Committed: true, Tombstone: true,
			Length: math.MaxUint32, LocBlock: math.MaxUint32, LocOff: math.MaxUint32}
	}
	var purges []byte
	for len(purges) < 1<<10 {
		purges = AppendPurge(purges, key, math.MaxUint64)
	}
	for _, n := range []int{0, 1, 1 << 10, 1 << 14} {
		v := make([]byte, n)
		msgs := []Message{
			&Put{Req: 1, Key: key, Value: v, Memgest: 2},
			&GetReply{Req: 1, Status: StOK, Version: 3, Value: v},
			&RepAppend{Memgest: 2, Shard: 1, Seq: 9, Rec: rec, Value: v},
			&ParityUpdate{Memgest: 2, Shard: 1, Seq: 9, Rec: rec, Block: 4, Off: 128, Delta: v},
			&FetchReply{Req: 1, Status: StOK, Data: v},
			&MetaFetchReply{Req: 1, Status: StOK, Memgest: 2, Shard: 1, Seq: 1 << 40, Recs: widest[:n>>8]},
			&RepCommit{Memgest: math.MaxUint32, Shard: math.MaxUint32, Seq: 1 << 40, More: math.MaxUint32 - 1, Purges: purges[:n>>4]},
		}
		hint := 0
		for _, m := range msgs {
			if got := len(Encode(m)); got > SizeHint(m) {
				t.Errorf("%T with %d payload bytes encodes to %d, SizeHint %d", m, n, got, SizeHint(m))
			}
			hint += SizeHint(m)
		}
		if got := len(AppendBatch(nil, msgs...)); got > hint {
			t.Errorf("batch of %d-byte payloads encodes to %d, summed SizeHint %d", n, got, hint)
		}
	}
}
