package proto

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

func TestAppendEncodeMatchesEncode(t *testing.T) {
	msgs := []Message{
		&Put{Req: 7, Key: "k", Value: []byte("v"), Memgest: 2},
		&GetReply{Req: 9, Status: StOK, Version: 3, Value: []byte("xyz")},
		&RepCommit{Memgest: 1, Shard: 2, Seq: 44},
		&Heartbeat{Epoch: 1},
	}
	for _, m := range msgs {
		plain := Encode(m)
		prefix := []byte{0xde, 0xad}
		appended := AppendEncode(append([]byte(nil), prefix...), m)
		if string(appended[:2]) != string(prefix) {
			t.Fatalf("%T: AppendEncode clobbered the prefix", m)
		}
		if string(appended[2:]) != string(plain) {
			t.Fatalf("%T: AppendEncode differs from Encode", m)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	recs := make([]MetaRecord, 20)
	for i := range recs {
		recs[i] = MetaRecord{Key: "user:42", Version: Version(i + 1), Memgest: 2, Committed: true, Length: 1024}
	}
	msgs := []Message{
		&RepCommit{Memgest: 1, Shard: 0, Seq: 7},
		&Purge{Memgest: 1, Shard: 0, Key: "k", Version: 1},
		&PutReply{Req: 3, Status: StOK, Version: 2},
		// Under 128 bytes behind a prefix reserved for its 197-byte
		// SizeHint: the length is padded to two bytes.
		&RepAppend{Memgest: 1, Seq: 8, Rec: MetaRecord{Key: "k", Version: 2, Memgest: 1, Length: 100}, Value: make([]byte, 100)},
		// Past the one byte its 96-byte SizeHint reserves: re-encoded
		// behind a two-byte prefix.
		&MetaFetchReply{Req: 4, Status: StOK, Memgest: 2, Seq: 20, Recs: recs},
	}
	pkt := AppendBatch(nil, msgs...)
	// Each prefix is as wide as its reservation, and only as wide as it
	// must be where the message outgrew it.
	widths := []int{1, 1, 1, 2, 2}
	b := pkt[2:]
	for i, m := range msgs {
		n, w := binary.Uvarint(b)
		if w != widths[i] || n != uint64(len(Encode(m))) {
			t.Fatalf("%T: prefix reads %d in %d bytes, want %d in %d", m, n, w, len(Encode(m)), widths[i])
		}
		b = b[w+int(n):]
	}
	if !IsBatch(pkt) {
		t.Fatalf("multi-message packet not tagged TBatch: type %d", pkt[0])
	}
	var got []Message
	if err := ForEachPacked(pkt, func(enc []byte) error {
		m, err := Decode(enc)
		if err != nil {
			return err
		}
		got = append(got, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, msgs) {
		t.Fatalf("round trip diverged:\n got %#v\nwant %#v", got, msgs)
	}
}

func TestBatchSingleMessageIsPlainEnvelope(t *testing.T) {
	pkt := AppendBatch(nil, &Heartbeat{Epoch: 5})
	if IsBatch(pkt) {
		t.Fatal("single message must not pay the batch envelope")
	}
	m, err := Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := m.(*Heartbeat); !ok || h.Epoch != 5 {
		t.Fatalf("got %#v", m)
	}
	// ForEachPacked degrades to a single visit on plain envelopes.
	visits := 0
	if err := ForEachPacked(pkt, func(enc []byte) error {
		visits++
		if len(enc) != len(pkt) {
			t.Fatalf("plain visit saw %d of %d bytes", len(enc), len(pkt))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if visits != 1 {
		t.Fatalf("visits = %d", visits)
	}
}

func TestBatchRejectsMalformed(t *testing.T) {
	nop := func([]byte) error { return nil }
	// [TBatch][count 2][len 2][THeartbeat 1][len 2][THeartbeat 2]
	good := AppendBatch(nil, &Heartbeat{Epoch: 1}, &Heartbeat{Epoch: 2})
	if want := []byte{byte(TBatch), 2, 2, byte(THeartbeat), 1, 2, byte(THeartbeat), 2}; !bytes.Equal(good, want) {
		t.Fatalf("frame %x, want %x", good, want)
	}
	cases := map[string][]byte{
		"empty body":       {byte(TBatch)},
		"truncated count":  {byte(TBatch), 0x82},
		"count over u32":   {byte(TBatch), 0x80, 0x80, 0x80, 0x80, 0x10},
		"count over bytes": {byte(TBatch), 3, 1, byte(THeartbeat)},
		"truncated prefix": {byte(TBatch), 2, 0x82},
		"missing message":  good[:len(good)-3],
		"truncated body":   good[:len(good)-1],
		"trailing bytes":   append(append([]byte(nil), good...), 0xAA),
	}
	for name, pkt := range cases {
		if err := ForEachPacked(pkt, nop); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A nested batch is malformed by construction.
	inner := AppendBatch(nil, &Heartbeat{Epoch: 1}, &Heartbeat{Epoch: 2})
	nested := append([]byte{byte(TBatch), 1, byte(len(inner))}, inner...)
	if err := ForEachPacked(nested, nop); err == nil {
		t.Error("nested batch: accepted")
	}
	// Decode never sees TBatch as a message type.
	if _, err := Decode(good); err == nil {
		t.Error("Decode accepted a TBatch envelope")
	}
}

func TestBatchStopsOnCallbackError(t *testing.T) {
	pkt := AppendBatch(nil, &Heartbeat{Epoch: 1}, &Heartbeat{Epoch: 2}, &Heartbeat{Epoch: 3})
	visits := 0
	err := ForEachPacked(pkt, func([]byte) error {
		visits++
		if visits == 2 {
			return ErrTruncated // arbitrary sentinel
		}
		return nil
	})
	if err != ErrTruncated || visits != 2 {
		t.Fatalf("err=%v visits=%d", err, visits)
	}
}
