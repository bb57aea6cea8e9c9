package proto

import (
	"bytes"
	"testing"
)

// FuzzWireRoundTrip drives arbitrary bytes through the decode→encode
// cycle and pins the fixed point: any packet Decode accepts must
// re-encode to bytes Decode accepts again with an identical second
// encoding. Divergence means a type's encode and decode methods have
// drifted (a field read but not written, or written twice):
// TestWireTable pairs a tag with its type, the fuzzer guards the
// byte-level contract between that type's two methods.
func FuzzWireRoundTrip(f *testing.F) {
	seeds := []Message{
		&Put{Req: 7, Key: "k", Value: []byte("v"), Memgest: 3},
		&PutReply{Req: 7, Status: StOK, Version: 9},
		&Get{Req: 8, Key: "k", Version: 2},
		&GetReply{Req: 8, Status: StNotFound, Version: 0, Value: nil},
		&Move{Req: 9, Key: "k", Memgest: 2},
		&Move{Req: 10, Key: "k", Memgest: 2, From: 1},
		&Move{Req: 11, Key: "user:", Memgest: 3, From: 1, Prefix: true},
		&MoveReply{Req: 11, Status: StOK, Version: 4, Moved: 7},
		&Tick{},
	}
	for _, m := range seeds {
		f.Add(Encode(m))
	}
	f.Add(AppendBatch(nil, seeds...))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0, 0, 0, 0})
	f.Add([]byte{0x01})

	f.Fuzz(func(t *testing.T, pkt []byte) {
		// ForEachPacked must never panic on arbitrary input, and every
		// sub-message it yields goes through the round-trip check.
		_ = ForEachPacked(pkt, func(enc []byte) error {
			checkRoundTrip(t, enc)
			return nil
		})
		checkRoundTrip(t, pkt)
	})
}

func checkRoundTrip(t *testing.T, pkt []byte) {
	t.Helper()
	m1, err := Decode(pkt)
	if err != nil {
		return // malformed input is fine; it just must not panic
	}
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
