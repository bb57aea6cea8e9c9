package core

import (
	"math"
	"time"

	"ring/internal/proto"
	"ring/internal/transport"
)

// PoisonPayloads makes every host overwrite a consumed packet with 0xDB
// before recycling it, and a message it gives back with junk
// (proto.Poison). It is a test switch, set in TestMain before any node
// is built: a handler that kept a view into a packet, or a message, past
// its return reads junk at once, not what production timing puts there.
var PoisonPayloads bool

// release gives a message the host decoded or encoded back to its free list.
func release(m proto.Message) {
	if PoisonPayloads {
		proto.Poison(m)
	}
	proto.Release(m)
}

// MaxDrain bounds how many queued packets a batch takes behind its
// first, so a flooded node still flushes its sends promptly.
const MaxDrain = 64

// Host runs one Node on packet bytes, with no transport and no clock.
// The Runner and the simulator both run a batch as Deliver per packet
// (or the node's HandleTick alone), Flush, and Pack of what Flush
// returned; which packets share a batch, and how one travels, is theirs.
type Host struct {
	Node *Node

	// Pack's scratch, reused so that sending allocates nothing beyond
	// the packets: one destination's messages, their Out.Scratch, and
	// the purges its commits carry.
	group    []proto.Message
	payloads [][]byte
	purges   []byte
}

// Deliver runs the messages of one packet (one, or a TBatch of several)
// through the node at now, in order, dropping a malformed one. A message
// goes back to its free list once its handler returns. The packet stays
// the caller's, who may reuse its bytes once Deliver returns: a handler
// copies what it keeps (the ownership rule of package transport).
func (h *Host) Deliver(now time.Duration, from string, payload []byte) {
	_ = proto.ForEachPacked(payload, func(enc []byte) error {
		if msg, err := proto.Decode(enc); err == nil {
			h.Node.HandleMessage(now, from, msg)
			release(msg)
		}
		return nil
	})
	if PoisonPayloads {
		for i := range payload {
			payload[i] = 0xDB
		}
	}
}

// Pack coalesces one batch's outputs by destination and hands each
// group to send as a single packet, in order: m parity updates or r
// replica appends to the same peer cost one send, like back-to-back
// verbs posted with a single doorbell. Inside a packet, a message that
// continues the run of the one before it is folded into it (see fold),
// so that each thing is said once. A packet is closed before the
// next message's proto.SizeHint would take it past transport.MaxPacket,
// so that it fits the buffer its receiver reads into, and the peer's
// next packet starts with that message; one message longer than that (a
// block a recovery fetched, a value near proto.MaxValue, a large
// metadata table) leaves alone. A packet is encoded into
// a pooled buffer sized for it up front, and its messages and their
// Out.Scratch go back to their pools once it holds their bytes. The
// packet is send's, and a send error is ignored as a datagram's would
// be: dead peers are the failure detector's problem. Entries are cleared
// as they are packed so that nothing pins a message.
func (h *Host) Pack(outs []Out, send func(to string, pkt []byte) error) {
	for i := range outs {
		if outs[i].To == "" {
			continue // already coalesced into an earlier group
		}
		to := outs[i].To
		size := 0
		h.group, h.payloads = h.group[:0], h.payloads[:0]
		for j := i; j < len(outs); j++ {
			if outs[j].To != to {
				continue
			}
			hint := proto.SizeHint(outs[j].Msg)
			if len(h.group) > 0 && size+hint > transport.MaxPacket {
				break // outs[j] starts to's next packet
			}
			size += hint
			if len(h.group) > 0 && h.fold(h.group[len(h.group)-1], outs[j].Msg) {
				release(outs[j].Msg)
			} else {
				h.group = append(h.group, outs[j].Msg)
			}
			if outs[j].Scratch != nil {
				h.payloads = append(h.payloads, outs[j].Scratch)
			}
			outs[j] = Out{}
		}
		buf := proto.AppendBatch(transport.AcquireBufSize(size), h.group...)
		for _, b := range h.payloads {
			transport.ReleaseBuf(b)
		}
		for _, m := range h.group {
			if c, ok := m.(*proto.RepCommit); ok {
				c.Purges = nil // h.purges, reused for the next packet
			}
			release(m)
		}
		h.purges = h.purges[:0]
		h.Node.Metrics.MsgsOut.Add(uint64(len(h.group)))
		h.Node.Metrics.PacketsOut.Inc()
		_ = send(to, buf)
		clear(h.group)
		clear(h.payloads)
	}
}

// fold merges m into last, the message before it in its packet, when m
// continues last's run, and reports whether it did: an ack whose first
// seq follows the last one an ack of its kind names, a commit that does
// the same to a commit, each of the same memgest shard, or a purge of a
// commit's memgest shard, which that commit then carries. Nothing else
// folds, so a run never reaches across a message it does not absorb,
// and its receiver applies what it carries in the order it was output:
// every seq, then every purge. A commit's purges are kept in h.purges
// until its packet is encoded; Pack's inputs carry none of their own.
func (h *Host) fold(last, m proto.Message) bool {
	switch m := m.(type) {
	case *proto.RepAck:
		l, ok := last.(*proto.RepAck)
		return ok && extend(l.Memgest == m.Memgest && l.Shard == m.Shard, l.Seq, &l.More, m.Seq, m.More)
	case *proto.ParityAck:
		l, ok := last.(*proto.ParityAck)
		return ok && extend(l.Memgest == m.Memgest && l.Shard == m.Shard, l.Seq, &l.More, m.Seq, m.More)
	case *proto.RepCommit:
		l, ok := last.(*proto.RepCommit)
		return ok && extend(l.Memgest == m.Memgest && l.Shard == m.Shard, l.Seq, &l.More, m.Seq, m.More)
	case *proto.Purge:
		l, ok := last.(*proto.RepCommit)
		if ok && l.Memgest == m.Memgest && l.Shard == m.Shard {
			n := len(h.purges)
			h.purges = proto.AppendPurge(h.purges, m.Key, m.Version)
			l.Purges = h.purges[n-len(l.Purges):] // l's purges are the tail of h.purges
			return true
		}
	}
	return false
}

// extend appends the run of more+1 seqs from seq to the run of
// *lmore+1 seqs from lseq when both are of one memgest shard (same),
// the first starts where the second ends, and the two fit one count;
// it reports whether it did.
func extend(same bool, lseq proto.Seq, lmore *uint32, seq proto.Seq, more uint32) bool {
	end := lseq + proto.Seq(*lmore)
	if !same || end == math.MaxUint64 || end+1 != seq || uint64(*lmore)+uint64(more)+2 > math.MaxUint32 {
		return false
	}
	*lmore += more + 1
	return true
}
