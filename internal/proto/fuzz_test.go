package proto

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// FuzzWireRoundTrip drives arbitrary bytes through the decode→encode
// cycle and pins the fixed point: any packet Decode accepts must
// re-encode to bytes Decode accepts again with an identical second
// encoding. Divergence means a type's encode and decode methods have
// drifted (a field read but not written, or written twice):
// TestWireTable pairs a tag with its type, the fuzzer guards the
// byte-level contract between that type's two methods.
//
// It also pins the reuse Decode makes of a given-back message: every
// message must decode into a struct that held another — the previous
// message of its type in the packet, and one poisoned in every field —
// exactly as it decodes fresh, so no field of the message before
// survives (an optional tail it had and this one lacks, above all).
func FuzzWireRoundTrip(f *testing.F) {
	seeds := []Message{
		&Put{Req: 7, Key: "k", Value: []byte("v"), Memgest: 3},
		&PutReply{Req: 7, Status: StOK, Version: 9},
		&PutReply{Req: 11, Status: StOK, Version: 4, Moved: 7},
		&Get{Req: 8, Key: "k", Version: 2},
		&GetReply{Req: 8, Status: StNotFound, Version: 0, Value: nil},
		&Move{Req: 9, Key: "k", Memgest: 2},
		&Move{Req: 10, Key: "k", Memgest: 2, From: 1},
		&Move{Req: 11, Key: "user:", Memgest: 3, From: 1, Prefix: true},
		&Reconfig{Req: 12, Op: ReconfigJoin, Node: 7},
		&Reconfig{Req: 13, Op: ReconfigLeave, Node: 3},
		&Reconfig{Req: 14, Op: ReconfigCreate, Scheme: SRS(3, 2, 3)},
		&Reconfig{Req: 15, Op: ReconfigDelete, Memgest: 4},
		&Reconfig{Req: 16, Op: ReconfigSetDefault, Memgest: 2},
		&ReconfigReply{Req: 13, Status: StOK, Moved: 1, Epoch: 5},
		&ReconfigReply{Req: 14, Status: StOK, Epoch: 6, Memgest: 8},
	}
	for _, m := range seeds {
		f.Add(Encode(m))
	}
	f.Add(AppendBatch(nil, seeds...))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0})
	f.Add([]byte{0x01})
	// A RepCommit whose Seq 7 is written in three bytes: it decodes, and
	// re-encodes in one.
	f.Add([]byte{byte(TRepCommit), 1, 0, 0x87, 0x80, 0x00})
	// A RepCommit whose memgest, a u32, holds 2^32.
	f.Add([]byte{byte(TRepCommit), 0x80, 0x80, 0x80, 0x80, 0x10, 0, 7})
	// A Put cut inside the varint of its ReqID.
	f.Add([]byte{byte(TPut), 0x81})
	// A TBatch whose count of three exceeds the bytes after it.
	f.Add([]byte{byte(TBatch), 3, 2, byte(THeartbeat), 1})

	// Each optional tail, then the same message without it.
	f.Add(AppendBatch(nil,
		&Move{Req: 17, Key: "user:", Memgest: 3, From: 1, Prefix: true}, &Move{Req: 18, Key: "k", Memgest: 2},
		&PutReply{Req: 17, Status: StOK, Moved: 7}, &PutReply{Req: 18, Status: StOK, Version: 3},
		&ReconfigReply{Req: 19, Status: StOK, Epoch: 6, Memgest: 8}, &ReconfigReply{Req: 20, Status: StRetry},
		&Reconfig{Req: 21, Op: ReconfigCreate, Scheme: SRS(3, 2, 3)}, &Reconfig{Req: 22, Op: ReconfigJoin, Node: 7},
		&RepAck{Memgest: 2, Shard: 1, Seq: 9, More: 2}, &RepAck{Memgest: 2, Shard: 1, Seq: 12},
		&ParityAck{Memgest: 1, Seq: 40, More: 63}, &ParityAck{Memgest: 1, Seq: 104},
		&RepCommit{Memgest: 2, Shard: 1, Seq: 9, More: 2, Purges: AppendPurge(AppendPurge(nil, "k", 3), "j", 1)},
		&RepCommit{Memgest: 2, Shard: 1, Seq: 12, Purges: AppendPurge(nil, "k", 4)}, &RepCommit{Memgest: 2, Shard: 1, Seq: 13},
	))
	// The records a RepAppend and a ParityUpdate rebuild from their
	// message, a tombstone's and a committed one's.
	f.Add(AppendBatch(nil,
		&RepAppend{Memgest: 2, Shard: 1, Seq: 9, Rec: MetaRecord{Key: "k", Version: 3, Memgest: 2, Length: 1}, Value: []byte("v")},
		&RepAppend{Memgest: 2, Seq: 10, Rec: MetaRecord{Key: "k", Version: 4, Memgest: 2, Tombstone: true, Committed: true}},
		&ParityUpdate{Memgest: 1, Seq: 11, Rec: MetaRecord{Key: "k", Version: 5, Memgest: 1, Length: 2, LocBlock: 7, LocOff: 300}, Block: 7, Off: 300, Delta: []byte{1, 2}},
		&ParityUpdate{Memgest: 1, Seq: 12, Rec: MetaRecord{Key: "k", Version: 6, Memgest: 1, Tombstone: true}},
	))
	// A run of count 0, a run past the last Seq, a purge cut in its key.
	f.Add([]byte{byte(TRepAck), 1, 0, 7, 0})
	f.Add(append(binary.AppendUvarint([]byte{byte(TParityAck), 1, 0}, math.MaxUint64), 2))
	f.Add([]byte{byte(TRepCommit), 1, 0, 7, 1, 3, 'k', 'e'})

	f.Fuzz(func(t *testing.T, pkt []byte) {
		// ForEachPacked must never panic on arbitrary input, and every
		// sub-message it yields goes through the round-trip check.
		var prev [tEnd]Message
		_ = ForEachPacked(pkt, func(enc []byte) error {
			checkRoundTrip(t, enc, &prev)
			return nil
		})
		checkRoundTrip(t, pkt, new([tEnd]Message))
	})
}

// checkRoundTrip checks the fixed point on one message, and that it
// decodes into a struct that held the last message of its type in prev,
// and into a poisoned one, as it decodes fresh; it leaves its own
// struct in prev.
func checkRoundTrip(t *testing.T, pkt []byte, prev *[tEnd]Message) {
	t.Helper()
	m1, err := Decode(pkt)
	if err != nil {
		return // malformed input is fine; it just must not panic
	}
	tag := m1.Type()
	poisoned := wire[tag].make()
	Poison(poisoned)
	for _, reused := range []Message{prev[tag], poisoned} {
		if reused == nil {
			continue
		}
		if err := reused.decode(reader{b: pkt[1:]}); err != nil || !reflect.DeepEqual(reused, m1) {
			t.Fatalf("%T decoded into a used struct is %+v (%v), fresh %+v", m1, reused, err, m1)
		}
	}
	prev[tag] = m1
	enc1 := Encode(m1)
	m2, err := Decode(enc1)
	if err != nil {
		t.Fatalf("re-decode of freshly encoded %T failed: %v", m1, err)
	}
	enc2 := Encode(m2)
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("%T encode/decode is not a fixed point:\n enc1=%x\n enc2=%x", m1, enc1, enc2)
	}
}
