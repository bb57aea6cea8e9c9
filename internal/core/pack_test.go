package core

import (
	"testing"

	"ring/internal/proto"
	"ring/internal/transport"
)

// sentPacket is one packet Pack handed to send, decoded: its bytes'
// length and the tag of every message it carries, in order.
type sentPacket struct {
	to   string
	size int
	tags []uint64
}

// tagged builds a message of about size bytes whose tag reads back
// from its encoding: a recovery reply when fetch is set, else an ack
// under 100 bytes and a parity update from there.
func tagged(tag uint64, size int, fetch bool) proto.Message {
	switch {
	case fetch:
		return &proto.FetchReply{Req: proto.ReqID(tag), Status: proto.StOK, Data: make([]byte, size)}
	case size < 100:
		return &proto.ParityAck{Memgest: 1, Seq: proto.Seq(tag)}
	}
	return &proto.ParityUpdate{Memgest: 1, Seq: proto.Seq(tag), Rec: proto.MetaRecord{Key: "k", Version: 1, Memgest: 1}, Delta: make([]byte, size)}
}

func tagOf(m proto.Message) uint64 {
	switch m := m.(type) {
	case *proto.FetchReply:
		return uint64(m.Req)
	case *proto.ParityAck:
		return uint64(m.Seq)
	case *proto.ParityUpdate:
		return uint64(m.Seq)
	}
	return 0
}

// packAll runs outs through a host's Pack and decodes what it sent.
func packAll(t testing.TB, outs []Out) []sentPacket {
	t.Helper()
	host := &Host{Node: New(0, &proto.Config{Epoch: 1}, Options{})}
	var sent []sentPacket
	host.Pack(outs, func(to string, pkt []byte) error {
		p := sentPacket{to: to, size: len(pkt)}
		if err := proto.ForEachPacked(pkt, func(enc []byte) error {
			m, err := proto.Decode(enc)
			if err != nil {
				return err
			}
			p.tags = append(p.tags, tagOf(m))
			return nil
		}); err != nil {
			t.Fatalf("a packet to %s does not decode: %v", to, err)
		}
		sent = append(sent, p)
		transport.ReleaseBuf(pkt)
		return nil
	})
	return sent
}

// checkPacked holds what Pack sent to the rule: want, each destination's
// tags in the order they were output, leaves exactly once and in that
// order, and no packet of more than one message is over
// transport.MaxPacket.
func checkPacked(t testing.TB, sent []sentPacket, want map[string][]uint64) {
	t.Helper()
	got := map[string][]uint64{}
	for _, p := range sent {
		if len(p.tags) > 1 && p.size > transport.MaxPacket {
			t.Fatalf("a packet of %d messages to %s is %d bytes, over MaxPacket (%d)", len(p.tags), p.to, p.size, transport.MaxPacket)
		}
		got[p.to] = append(got[p.to], p.tags...)
	}
	for to, tags := range want {
		if len(got[to]) != len(tags) {
			t.Fatalf("%s got %d messages, want %d", to, len(got[to]), len(tags))
		}
		for i := range tags {
			if got[to][i] != tags[i] {
				t.Fatalf("%s got messages %v, want %v in that order", to, got[to], tags)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("packets went to %d destinations, want %d", len(got), len(want))
	}
}

// TestPackBoundsPackets: one batch's outputs to two peers, ten 16 KiB
// parity updates and acks between them and one 100 KiB recovery reply,
// leave each peer in order, in packets that fit the receiver's read
// buffer, and the recovery reply, longer than that, alone.
func TestPackBoundsPackets(t *testing.T) {
	var outs []Out
	want := map[string][]uint64{}
	add := func(to string, m proto.Message) {
		outs = append(outs, Out{To: to, Msg: m})
		want[to] = append(want[to], tagOf(m))
	}
	const fetchTag = 1000
	for i := uint64(1); i <= 10; i++ {
		add([]string{"peer/a", "peer/b"}[i%2], tagged(i, 16<<10, false))
		add("peer/a", tagged(100+i, 0, false))
		if i == 6 {
			add("peer/b", tagged(fetchTag, 100<<10, true))
		}
	}
	sent := packAll(t, outs)
	checkPacked(t, sent, want)
	alone := false
	for _, p := range sent {
		for _, tag := range p.tags {
			if tag == fetchTag {
				alone = len(p.tags) == 1
			}
		}
	}
	if !alone {
		t.Error("the 100 KiB FetchReply shares a packet, want it alone")
	}
	if len(sent) < 4 {
		t.Errorf("%d packets for 160 KiB of parity updates to two peers, want at least 4", len(sent))
	}
}

// FuzzPack: arbitrary outputs, each a destination and a message size
// (up to twice transport.MaxPacket), leave exactly once each, in order
// per destination, and no packet of more than one message is over
// MaxPacket. Three bytes make one output: the destination, whether it is
// a recovery reply and whether its size doubles, then the size.
func FuzzPack(f *testing.F) {
	f.Add([]byte{0, 0x40, 0, 1, 0x40, 0, 0, 0x40, 0, 2, 0, 8})
	f.Add([]byte{0, 0xff, 0xff, 1, 0, 1, 0, 0xff, 0xf0, 0, 0, 0})
	f.Add([]byte{0x80, 0xc8, 0, 0x81, 0xff, 0x80, 0x02, 0x7f, 0xe0})
	f.Fuzz(func(t *testing.T, in []byte) {
		var outs []Out
		want := map[string][]uint64{}
		for i := 0; i+3 <= len(in) && len(outs) < 64; i += 3 {
			to := []string{"peer/a", "peer/b", "peer/c"}[in[i]&3%3]
			size := (int(in[i+1])<<8 | int(in[i+2])) * (1 + int(in[i]>>7))
			m := tagged(uint64(len(outs)+1), size, in[i]&0x40 != 0)
			outs = append(outs, Out{To: to, Msg: m})
			want[to] = append(want[to], tagOf(m))
		}
		checkPacked(t, packAll(t, outs), want)
	})
}
