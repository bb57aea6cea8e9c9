package proto

import (
	"encoding/binary"
	"math/bits"
)

// Batch frame format.
//
// A TBatch packet carries several independently encoded messages in
// one transport send, so a fan-out of r replica appends or m parity
// updates to the same peer costs a single datagram — the analogue of
// posting back-to-back RDMA verbs and ringing the doorbell once:
//
//	[1-byte TBatch][varint count][count × ([varint len][len bytes of message])]
//
// Each sub-message is a complete envelope as produced by Encode /
// AppendEncode (type byte included), so decoding a batch is just
// slicing and dispatching through the ordinary Decode. A length is
// padded to the width of its message's SizeHint, reserved before the
// message is encoded behind it, so nothing written moves. Batches are
// never nested: AppendBatch emits sub-messages flat, and ForEachPacked
// treats a TBatch sub-message as malformed.

// TBatch tags a multi-message packet. It sits at the top of the type
// space, far from the iota-assigned message types, so new messages
// can be appended without colliding. It is a frame envelope, not a
// message: AppendBatch writes it and ForEachPacked strips it before
// Decode ever sees the payload.
const TBatch MsgType = 0xFF

// lenPad is the zero bytes a length prefix is reserved with.
var lenPad [binary.MaxVarintLen64]byte

// uvarintLen is the length of binary.AppendUvarint's encoding of v.
func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// putPaddedUvarint writes v as a varint of exactly len(b) bytes:
// continuation bits on all but the last. v must fit 7·len(b) bits.
func putPaddedUvarint(b []byte, v int) {
	for i := range b {
		b[i] = byte(v>>(7*i)) | 0x80
	}
	b[len(b)-1] &^= 0x80
}

// AppendBatch frames msgs into buf as one packet and returns the
// extended slice. A single message is emitted as its plain envelope
// (no batch overhead); two or more are wrapped in a TBatch frame.
func AppendBatch(buf []byte, msgs ...Message) []byte {
	if len(msgs) == 1 {
		return AppendEncode(buf, msgs[0])
	}
	buf = append(buf, uint8(TBatch))
	buf = binary.AppendUvarint(buf, uint64(len(msgs)))
	for _, m := range msgs {
		lenAt, w := len(buf), uvarintLen(SizeHint(m))
		buf = AppendEncode(append(buf, lenPad[:w]...), m)
		if n := len(buf) - lenAt - w; uvarintLen(n) > w {
			// A message SizeHint does not bound (a configuration, a
			// metadata table, a long key) outgrew its prefix: encode it
			// again behind a wide enough one.
			w = uvarintLen(n)
			buf = AppendEncode(append(buf[:lenAt], lenPad[:w]...), m)
		}
		putPaddedUvarint(buf[lenAt:lenAt+w], len(buf)-lenAt-w)
	}
	return buf
}

// SizeHint returns the buffer capacity to encode m into without
// regrowing it: an upper bound for the messages that carry a payload, a
// metadata table or purges (96 bytes cover their other fields,
// ParityUpdate's 52 at most, and AppendBatch's framing), and 96 bytes
// for the rest, where an outsized one (a configuration, a long key)
// grows its buffer.
func SizeHint(m Message) int {
	n := 96
	switch m := m.(type) {
	case *Put:
		n += len(m.Key) + len(m.Value)
	case *GetReply:
		n += len(m.Value)
	case *RepAppend:
		n += len(m.Rec.Key) + len(m.Value)
	case *ParityUpdate:
		n += len(m.Rec.Key) + len(m.Delta)
	case *FetchReply:
		n += len(m.Data)
	case *RepCommit:
		n += len(m.Purges)
	case *MetaFetchReply:
		for i := range m.Recs {
			n += recordMax + len(m.Recs[i].Key)
		}
	}
	return n
}

// recordMax bounds a MetaRecord's encoding beside its key's bytes: the
// key's length and five other varints, each at its widest, and two
// bools.
const recordMax = 5 + 10 + 5 + 2 + 3*5

// IsBatch reports whether an encoded packet is a TBatch envelope.
func IsBatch(pkt []byte) bool {
	return len(pkt) > 0 && MsgType(pkt[0]) == TBatch
}

// Coalesced reports whether an encoded packet carries more than one
// thing said: a TBatch envelope, or a lone RepAck, ParityAck or
// RepCommit with a tail past its seq (a folded run, or a commit's
// carried purges). It reads the varints in place and allocates nothing.
func Coalesced(pkt []byte) bool {
	if len(pkt) == 0 {
		return false
	}
	switch MsgType(pkt[0]) {
	case TBatch:
		return true
	case TRepAck, TParityAck, TRepCommit:
		r := reader{b: pkt[1:]}
		r.u32()
		r.u32()
		r.u64()
		return r.err == nil && len(r.b) > 0
	}
	return false
}

// ForEachPacked calls fn once per encoded message carried by pkt: for
// a TBatch packet it visits every sub-message in order, for any other
// packet it visits the packet itself. The sub-slices passed to fn
// alias pkt, and so do the byte fields of whatever fn decodes from
// them: both are valid until pkt is recycled, and fn copies what it
// keeps longer. A non-nil error from fn stops the iteration and is
// returned.
func ForEachPacked(pkt []byte, fn func(enc []byte) error) error {
	if !IsBatch(pkt) {
		return fn(pkt)
	}
	r := reader{b: pkt[1:]}
	count := int(r.u32())
	if count > len(r.b) {
		r.fail() // every sub-message takes at least its length byte
	}
	for i := 0; i < count && r.err == nil; i++ {
		sub := r.bytes()
		switch {
		case r.err != nil:
		case IsBatch(sub):
			return ErrUnknownType // nested batches are malformed
		default:
			if err := fn(sub); err != nil {
				return err
			}
		}
	}
	return r.done()
}
