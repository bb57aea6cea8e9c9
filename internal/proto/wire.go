// Package proto defines the wire protocol of Ring: the identifier
// types shared across the system, the storage-scheme and cluster
// configuration descriptors, and every message exchanged between
// clients, coordinators, replicas, parity nodes, and the leader.
//
// Messages are encoded with a hand-rolled little-endian binary format
// (no reflection): an envelope of [1-byte type][body]. Each message
// implements Marshaler; Decode dispatches on the type byte. The format
// is length-prefixed for all variable fields, rejects truncated input,
// and is covered by round-trip and corpus tests.
//
// Encoding has two entry points: Encode allocates a fresh buffer, and
// AppendEncode appends into a caller-owned buffer for the
// zero-allocation hot path. Several messages bound for the same peer
// can be coalesced into one packet with AppendBatch, producing a
// TBatch envelope ([1-byte TBatch][u32 count][count length-prefixed
// messages]); ForEachPacked iterates the sub-messages of such a
// packet (and degrades to a single visit for plain envelopes). See
// batch.go for the exact frame layout.
//
// Decoding does not copy payloads: every []byte field of a decoded
// message (Put.Value, RepAppend.Value, ParityUpdate.Delta, GetReply.Value,
// the recovery replies' Value/Data) is a view into the buffer handed
// to Decode and is valid only as long as that buffer is. Whoever
// recycles the buffer owns the rule that goes with it: a consumer that
// keeps such bytes past the buffer's release copies them first (see
// the transport package's "Payload ownership"). Strings and all
// fixed-width fields are copied out as before.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is returned when a buffer ends before a complete value.
var ErrTruncated = errors.New("proto: truncated message")

// ErrUnknownType is returned for an unrecognized message type byte.
var ErrUnknownType = errors.New("proto: unknown message type")

// writer appends primitive values to a byte slice.
type writer struct{ b []byte }

func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) bytes(v []byte) {
	w.u32(uint32(len(v)))
	w.b = append(w.b, v...)
}
func (w *writer) str(v string) {
	w.u32(uint32(len(v)))
	w.b = append(w.b, v...)
}

// reader consumes primitive values from a byte slice.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || len(r.b) < 2 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) bool() bool { return r.u8() != 0 }

// bytes returns a view into the input, not a copy (see Decode), with
// its capacity clipped so that an append cannot run into the bytes that
// follow it in the packet.
func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || len(r.b) < n {
		r.fail()
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) str() string {
	n := int(r.u32())
	if r.err != nil || len(r.b) < n {
		r.fail()
		return ""
	}
	v := string(r.b[:n])
	r.b = r.b[n:]
	return v
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return errTrailing(len(r.b))
	}
	return nil
}

// errTrailing builds the trailing-bytes error. Cold by construction:
// it only runs for malformed packets, so the fmt allocation is kept
// off the decode fast path behind a hot-path stop.
//
//ring:hotpath-stop cold error constructor
func errTrailing(n int) error {
	return fmt.Errorf("proto: %d trailing bytes", n)
}
