// Package proto defines the wire protocol of Ring: the identifier
// types shared across the system, the storage-scheme and cluster
// configuration descriptors, and every message exchanged between
// clients, coordinators, replicas, parity nodes, and the leader.
//
// Messages are encoded with a hand-rolled binary format (no
// reflection): an envelope of [1-byte type][body], in which a Status or
// a bool is one byte and every other integer and every length prefix an
// unsigned varint that must fit its field's type. Decode dispatches on
// the type byte, rejects truncated or malformed input, and is covered
// by round-trip and corpus tests. There is no version byte.
//
// Encoding has two entry points: Encode allocates a fresh buffer, and
// AppendEncode appends into a caller-owned buffer for the
// zero-allocation hot path. Several messages bound for the same peer
// can be coalesced into one packet with AppendBatch, producing a
// TBatch envelope ([1-byte TBatch][varint count][count length-prefixed
// messages]); ForEachPacked iterates the sub-messages of such a
// packet (and degrades to a single visit for plain envelopes). See
// batch.go for the exact frame layout.
//
// Decoding does not copy payloads: every []byte field of a decoded
// message (Put.Value, RepAppend.Value, ParityUpdate.Delta, GetReply.Value,
// RepCommit.Purges, the recovery replies' Value/Data) is a view into the
// buffer handed to Decode and is valid only as long as that buffer is.
// So are the keys of a Get, a Purge, a commit's carried purges and a
// shipped MetaRecord (RepAppend, ParityUpdate): their handlers keep
// nothing of them, or the copy the metadata table made. Other strings
// and all integer fields are copied out. Whoever recycles the buffer
// owns the rule that goes with it: a consumer that keeps such bytes
// past the buffer's release copies them first (see the transport
// package's "Payload ownership").
//
// A message lives as long as its buffer, or shorter. The types marked
// free in the wire table (the ones every client operation decodes or
// sends) come from per-type free lists: Decode and New take from them,
// and Release gives a message back — a node's runner does so when the
// handler of a decoded message returns and once a sent one is encoded.
// Code that keeps a message longer keeps a copy, and a decoded message
// is never sent on as it is. A client or the simulator, which never
// release, just allocate.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// ErrTruncated is returned when a buffer ends before a complete value.
var ErrTruncated = errors.New("proto: truncated message")

// ErrMalformed is returned for a varint that overflows 64 bits or
// whose value does not fit the field it encodes.
var ErrMalformed = errors.New("proto: integer out of range for its field")

// ErrUnknownType is returned for an unrecognized message type byte.
var ErrUnknownType = errors.New("proto: unknown message type")

// writer appends primitive values to a byte slice: one byte for a u8
// or bool, an unsigned varint for every wider integer.
type writer struct{ b []byte }

func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u16(v uint16) { w.b = binary.AppendUvarint(w.b, uint64(v)) }
func (w *writer) u32(v uint32) { w.b = binary.AppendUvarint(w.b, uint64(v)) }
func (w *writer) u64(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
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

// uvarint consumes one varint no larger than max. A padded varint
// (continuation bits on a zero tail) is accepted, as binary.Uvarint
// accepts it. One byte, which fits every field, is read inline.
func (r *reader) uvarint(max uint64) uint64 {
	if len(r.b) > 0 && r.b[0] < 0x80 && r.err == nil {
		v := r.b[0]
		r.b = r.b[1:]
		return uint64(v)
	}
	return r.uvarintLong(max)
}

func (r *reader) uvarintLong(max uint64) uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case r.err != nil:
	case n == 0:
		r.err = ErrTruncated
	case n < 0 || v > max:
		r.err = ErrMalformed
	default:
		r.b = r.b[n:]
		return v
	}
	return 0
}

func (r *reader) u16() uint16 { return uint16(r.uvarint(math.MaxUint16)) }
func (r *reader) u32() uint32 { return uint32(r.uvarint(math.MaxUint32)) }
func (r *reader) u64() uint64 { return r.uvarint(math.MaxUint64) }

func (r *reader) bool() bool { return r.u8() != 0 }

// bytes returns a view into the input, not a copy (see Decode), with
// its capacity clipped so that an append cannot run into the bytes that
// follow it in the packet.
func (r *reader) bytes() []byte { return r.upTo(math.MaxUint32) }

// upTo is bytes for a field whose length may not exceed max.
func (r *reader) upTo(max uint64) []byte {
	n := int(r.uvarint(max))
	if r.err != nil || len(r.b) < n {
		r.fail()
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) str() string { return string(r.bytes()) }

// view is str without the copy: a string over the input's bytes, valid
// only as long as they are (see the package doc).
func (r *reader) view() string { return viewOf(r.bytes()) }

// key is view for a key: one longer than MaxKey is malformed.
func (r *reader) key() string { return viewOf(r.upTo(MaxKey)) }

func viewOf(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// more reads the count of a run of entries from seq and returns how
// many follow seq: a count of zero, or one past the last Seq, is
// malformed.
func (r *reader) more(seq Seq) uint32 {
	n := r.u32()
	if r.err == nil && (n == 0 || uint64(n-1) > math.MaxUint64-uint64(seq)) {
		r.err = ErrMalformed
	}
	if r.err != nil {
		return 0
	}
	return n - 1
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
// off the decode fast path.
func errTrailing(n int) error {
	return fmt.Errorf("proto: %d trailing bytes", n)
}
