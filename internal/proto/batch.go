package proto

import "encoding/binary"

// Batch frame format.
//
// A TBatch packet carries several independently encoded messages in
// one transport send, so a fan-out of r replica appends or m parity
// updates to the same peer costs a single datagram — the analogue of
// posting back-to-back RDMA verbs and ringing the doorbell once:
//
//	[1-byte TBatch][u32 count][count × ([u32 len][len bytes of message])]
//
// Each sub-message is a complete envelope as produced by Encode /
// AppendEncode (type byte included), so decoding a batch is just
// slicing and dispatching through the ordinary Decode. Batches are
// never nested: AppendBatch emits sub-messages flat, and
// ForEachPacked treats a TBatch sub-message as malformed.

// TBatch tags a multi-message packet. It sits at the top of the type
// space, far from the iota-assigned message types, so new messages
// can be appended without colliding. It is a frame envelope, not a
// message: AppendBatch writes it and ForEachPacked strips it before
// Decode ever sees the payload.
const TBatch MsgType = 0xFF

// AppendBatch frames msgs into buf as one packet and returns the
// extended slice. A single message is emitted as its plain envelope
// (no batch overhead); two or more are wrapped in a TBatch frame.
//
//ring:hotpath
func AppendBatch(buf []byte, msgs ...Message) []byte {
	if len(msgs) == 1 {
		return AppendEncode(buf, msgs[0])
	}
	buf = append(buf, uint8(TBatch))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(msgs)))
	for _, m := range msgs {
		lenAt := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		buf = AppendEncode(buf, m)
		binary.LittleEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	}
	return buf
}

// SizeHint returns the buffer capacity to encode m into without
// regrowing it: an upper bound for the messages that carry a payload
// (their fixed fields, the largest being ParityUpdate's 63 bytes, and
// AppendBatch's framing fit in the 96 bytes allowed for them), and
// those same 96 bytes for the rest, where an outsized one (a
// configuration, a metadata table) just grows its buffer as any append
// would.
//
//ring:hotpath
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
	}
	return n
}

// IsBatch reports whether an encoded packet is a TBatch envelope.
func IsBatch(pkt []byte) bool {
	return len(pkt) > 0 && MsgType(pkt[0]) == TBatch
}

// ForEachPacked calls fn once per encoded message carried by pkt: for
// a TBatch packet it visits every sub-message in order, for any other
// packet it visits the packet itself. The sub-slices passed to fn
// alias pkt, and so do the byte fields of whatever fn decodes from
// them: both are valid until pkt is recycled, and fn copies what it
// keeps longer. A non-nil error from fn stops the iteration and is
// returned.
//
//ring:hotpath
func ForEachPacked(pkt []byte, fn func(enc []byte) error) error {
	if !IsBatch(pkt) {
		return fn(pkt)
	}
	b := pkt[1:]
	if len(b) < 4 {
		return ErrTruncated
	}
	count := binary.LittleEndian.Uint32(b)
	b = b[4:]
	for i := uint32(0); i < count; i++ {
		if len(b) < 4 {
			return ErrTruncated
		}
		n := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < n {
			return ErrTruncated
		}
		sub := b[:n]
		b = b[n:]
		if IsBatch(sub) {
			return ErrUnknownType // nested batches are malformed
		}
		if err := fn(sub); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return ErrTruncated
	}
	return nil
}
