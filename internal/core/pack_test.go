package core

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ring/internal/proto"
	"ring/internal/transport"
)

// item is one thing a message says: an entry an ack or a commit names,
// a purge (carried by a commit or alone), or another message, named by
// the output it came from.
type item struct {
	kind  proto.MsgType // of that output: a carried purge is a TPurge
	mg    proto.MemgestID
	shard uint32
	tag   uint64 // the entry's seq, the purge's version, else the tag
	key   string // a purge's
}

// sentPacket is one packet Pack handed to send, decoded: its bytes'
// length and what each message it carries says, in order.
type sentPacket struct {
	to   string
	size int
	msgs [][]item
}

// itemsOf returns what m says, in the order its receiver applies it,
// keys copied out of the packet m may view.
func itemsOf(m proto.Message) []item {
	run := func(k proto.MsgType, mg proto.MemgestID, shard uint32, seq proto.Seq, more uint32) (out []item) {
		for i := range more + 1 {
			out = append(out, item{kind: k, mg: mg, shard: shard, tag: uint64(seq) + uint64(i)})
		}
		return out
	}
	switch m := m.(type) {
	case *proto.RepAck:
		return run(proto.TRepAck, m.Memgest, m.Shard, m.Seq, m.More)
	case *proto.ParityAck:
		return run(proto.TParityAck, m.Memgest, m.Shard, m.Seq, m.More)
	case *proto.RepCommit:
		out := run(proto.TRepCommit, m.Memgest, m.Shard, m.Seq, m.More)
		m.EachPurge(func(key string, v proto.Version) {
			out = append(out, item{kind: proto.TPurge, mg: m.Memgest, shard: m.Shard, tag: uint64(v), key: strings.Clone(key)})
		})
		return out
	case *proto.Purge:
		return []item{{kind: proto.TPurge, mg: m.Memgest, shard: m.Shard, tag: uint64(m.Version), key: strings.Clone(m.Key)}}
	case *proto.FetchReply:
		return []item{{kind: proto.TFetchReply, tag: uint64(m.Req)}}
	case *proto.MetaFetchReply:
		return []item{{kind: proto.TMetaFetchReply, tag: uint64(m.Req)}}
	case *proto.ParityUpdate:
		return []item{{kind: proto.TParityUpdate, mg: m.Memgest, shard: m.Shard, tag: uint64(m.Seq)}}
	case *proto.RepAppend:
		return []item{{kind: proto.TRepAppend, mg: m.Memgest, shard: m.Shard, tag: uint64(m.Seq)}}
	}
	return []item{{kind: m.Type()}}
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
			p.msgs = append(p.msgs, itemsOf(m))
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

// checkPacked holds what Pack sent to the rule, against want, what
// each destination was output in order, one item an output: every item
// leaves exactly once; each message sent says the items of a run of
// consecutive outputs, and the messages follow each other as their runs
// do, so that nothing moves past an output outside its run; inside a
// message, entries and purges each keep their order; and no packet of
// more than one message is over transport.MaxPacket.
func checkPacked(t testing.TB, sent []sentPacket, want map[string][]item) {
	t.Helper()
	next := map[string]int{} // per destination, the first output no message has said yet
	for _, p := range sent {
		if len(p.msgs) > 1 && p.size > transport.MaxPacket {
			t.Fatalf("a packet of %d messages to %s is %d bytes, over MaxPacket (%d)", len(p.msgs), p.to, p.size, transport.MaxPacket)
		}
		outs := want[p.to]
		for _, items := range p.msgs {
			lo, said := next[p.to], map[int]bool{}
			lastSeq, lastPurge := -1, -1
			for _, it := range items {
				at := -1
				for i := lo; i < len(outs); i++ {
					if outs[i] == it {
						at = i
						break
					}
				}
				switch {
				case at < 0:
					t.Fatalf("%s was sent %+v, which is not an output at or after its %dth", p.to, it, lo)
				case said[at]:
					t.Fatalf("%s was sent %+v twice", p.to, it)
				case it.kind == proto.TPurge && at < lastPurge, it.kind != proto.TPurge && at < lastSeq:
					t.Fatalf("a message to %s says %+v after what was output after it: %+v", p.to, it, items)
				}
				said[at] = true
				if it.kind == proto.TPurge {
					lastPurge = at
				} else {
					lastSeq = at
				}
			}
			for i := lo; i < lo+len(items); i++ {
				if !said[i] {
					t.Fatalf("a message to %s says %+v, past output %d (%+v) that it does not say", p.to, items, i, outs[i])
				}
			}
			next[p.to] = lo + len(items)
		}
	}
	for to, outs := range want {
		if next[to] != len(outs) {
			t.Fatalf("%s was sent %d of its %d outputs", to, next[to], len(outs))
		}
	}
	if len(next) != len(want) {
		t.Fatalf("packets went to %d destinations, want %d", len(next), len(want))
	}
}

// Kinds of output tagged builds.
const (
	plain = iota // an ack under 100 bytes, a parity update from there
	fetch        // a FetchReply
	table        // a MetaFetchReply
)

// tagged builds a message of about size bytes whose tag reads back
// from its encoding.
func tagged(tag uint64, size int, kind int) proto.Message {
	switch {
	case kind == fetch:
		return &proto.FetchReply{Req: proto.ReqID(tag), Status: proto.StOK, Data: make([]byte, size)}
	case kind == table:
		// 32 bytes a record: a 24-byte key and its fields.
		recs := make([]proto.MetaRecord, size/32)
		for i := range recs {
			recs[i] = proto.MetaRecord{Key: fmt.Sprintf("recovered-key-%010d", i), Version: 1, Memgest: 1, Committed: true}
		}
		return &proto.MetaFetchReply{Req: proto.ReqID(tag), Status: proto.StOK, Memgest: 1, Recs: recs}
	case size < 100:
		return &proto.ParityAck{Memgest: 1, Seq: proto.Seq(tag)}
	}
	return &proto.ParityUpdate{Memgest: 1, Seq: proto.Seq(tag), Rec: proto.MetaRecord{Key: "k", Version: 1, Memgest: 1}, Delta: make([]byte, size)}
}

// outputs collects a batch's outputs and what each says.
type outputs struct {
	outs []Out
	want map[string][]item
}

func (o *outputs) add(to string, m proto.Message) {
	if o.want == nil {
		o.want = map[string][]item{}
	}
	o.outs = append(o.outs, Out{To: to, Msg: m})
	o.want[to] = append(o.want[to], itemsOf(m)...)
}

// TestPackBoundsPackets: one batch's outputs to two peers, ten 16 KiB
// parity updates and acks between them, one 100 KiB recovery reply and
// four 24 KiB metadata tables, leave each peer in order, in packets that
// fit the receiver's read buffer, and the recovery reply, longer than
// that, alone.
func TestPackBoundsPackets(t *testing.T) {
	var o outputs
	const fetchTag = 1000
	for i := uint64(1); i <= 10; i++ {
		o.add([]string{"peer/a", "peer/b"}[i%2], tagged(i, 16<<10, plain))
		o.add("peer/a", tagged(100+i, 0, plain))
		if i == 6 {
			o.add("peer/b", tagged(fetchTag, 100<<10, fetch))
		}
	}
	for i := uint64(1); i <= 4; i++ {
		o.add("peer/c", tagged(200+i, 24<<10, table))
	}
	sent := packAll(t, o.outs)
	checkPacked(t, sent, o.want)
	alone := false
	for _, p := range sent {
		for _, items := range p.msgs {
			if items[0].kind == proto.TFetchReply {
				alone = len(p.msgs) == 1
			}
		}
	}
	if !alone {
		t.Error("the 100 KiB FetchReply shares a packet, want it alone")
	}
	if len(sent) < 6 {
		t.Errorf("%d packets for 160 KiB of parity updates to two peers and 96 KiB of tables to a third, want at least 6", len(sent))
	}
}

// TestPackFoldsRuns: acks of consecutive entries fold into one, and so
// do commits, which carry the purges of their memgest shard output
// among them; a run stops at anything else (another memgest, a gap in
// the seqs, an append, a purge it did not absorb), and a message
// counts once in MsgsOut.
func TestPackFoldsRuns(t *testing.T) {
	ack := func(mg proto.MemgestID, seq proto.Seq) proto.Message {
		return &proto.RepAck{Memgest: mg, Seq: seq}
	}
	commit := func(mg proto.MemgestID, seq proto.Seq) proto.Message {
		return &proto.RepCommit{Memgest: mg, Seq: seq}
	}
	purge := func(mg proto.MemgestID, key string, v proto.Version) proto.Message {
		return &proto.Purge{Memgest: mg, Key: key, Version: v}
	}
	appendOf := func(seq proto.Seq) proto.Message {
		return &proto.RepAppend{Memgest: 1, Seq: seq, Rec: proto.MetaRecord{Key: "k", Version: 1, Memgest: 1, Length: 1}, Value: []byte("v")}
	}
	outs := []Out{}
	for _, m := range []proto.Message{
		ack(1, 5), ack(1, 6), ack(1, 7), ack(2, 8), ack(2, 10), &proto.ParityAck{Memgest: 2, Seq: 11},
		commit(1, 9), purge(1, "k", 1), commit(1, 10), purge(1, "j", 4), purge(2, "x", 2), commit(1, 11),
		appendOf(13), commit(1, 12), commit(1, 13),
	} {
		outs = append(outs, Out{To: "peer/a", Msg: m})
	}
	host := &Host{Node: New(0, &proto.Config{Epoch: 1}, Options{})}
	var got []proto.Message
	host.Pack(outs, func(_ string, pkt []byte) error {
		return proto.ForEachPacked(pkt, func(enc []byte) error {
			m, err := proto.Decode(enc)
			got = append(got, m)
			return err
		})
	})
	want := []proto.Message{
		&proto.RepAck{Memgest: 1, Seq: 5, More: 2}, ack(2, 8), ack(2, 10), &proto.ParityAck{Memgest: 2, Seq: 11},
		&proto.RepCommit{Memgest: 1, Seq: 9, More: 1, Purges: proto.AppendPurge(proto.AppendPurge(nil, "k", 1), "j", 4)},
		purge(2, "x", 2), commit(1, 11),
		appendOf(13), &proto.RepCommit{Memgest: 1, Seq: 12, More: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("packed\n %s\nwant\n %s", show(got), show(want))
	}
	if n := host.Node.Metrics.MsgsOut.Load(); n != uint64(len(want)) {
		t.Errorf("MsgsOut counts %d, want the %d messages sent", n, len(want))
	}
}

// TestPackedRunIsCoalesced: a packet that holds one folded run of acks,
// or one commit with the purges it carries, coalesces as a TBatch does
// (proto.Coalesced, what transport.batched_sent counts), and a lone ack
// of one entry does not. Telling them apart allocates nothing.
func TestPackedRunIsCoalesced(t *testing.T) {
	outs := []Out{
		{To: "peer/run", Msg: &proto.RepAck{Memgest: 1, Seq: 5}},
		{To: "peer/run", Msg: &proto.RepAck{Memgest: 1, Seq: 6}},
		{To: "peer/run", Msg: &proto.RepAck{Memgest: 1, Seq: 7}},
		{To: "peer/one", Msg: &proto.ParityAck{Memgest: 2, Seq: 9}},
		{To: "peer/purge", Msg: &proto.RepCommit{Memgest: 1, Seq: 4}},
		{To: "peer/purge", Msg: &proto.Purge{Memgest: 1, Key: "k", Version: 1}},
		{To: "peer/batch", Msg: &proto.RepCommit{Memgest: 1, Seq: 4}},
		{To: "peer/batch", Msg: &proto.RepAck{Memgest: 1, Seq: 8}},
	}
	host := &Host{Node: New(0, &proto.Config{Epoch: 1}, Options{})}
	got := map[string]bool{}
	var pkts [][]byte
	host.Pack(outs, func(to string, pkt []byte) error {
		got[to] = proto.Coalesced(pkt)
		pkts = append(pkts, pkt)
		return nil
	})
	want := map[string]bool{"peer/run": true, "peer/one": false, "peer/purge": true, "peer/batch": true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("coalesced by peer: %v, want %v", got, want)
	}
	if proto.IsBatch(pkts[0]) || proto.IsBatch(pkts[2]) {
		t.Error("a folded run left as a TBatch: the test does not cover a lone message's tail")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, p := range pkts {
			proto.Coalesced(p)
		}
	}); allocs != 0 {
		t.Errorf("proto.Coalesced allocates %.1f times per four packets, want 0", allocs)
	}
}

func show(ms []proto.Message) (s string) {
	for _, m := range ms {
		s += fmt.Sprintf("%T%+v ", m, m)
	}
	return s
}

// FuzzPack: arbitrary outputs, each a destination, a kind and a message
// size (up to twice transport.MaxPacket), leave Pack as checkPacked
// requires: every ack and commit seq and every purge exactly once, no
// message moved past one outside its run, and no packet of more than
// one message over MaxPacket. Three bytes make one output: the
// destination (low two bits), the kind (next three), whether its
// memgest is the second of two, whether its seq skips one and whether
// its size doubles, then the size. The kinds are a parity update or ack
// by size, a recovery reply (a block, or a metadata table of records),
// a RepAck, a ParityAck, a RepCommit, a Purge and a RepAppend.
func FuzzPack(f *testing.F) {
	f.Add([]byte{0, 0x40, 0, 1, 0x40, 0, 0, 0x40, 0, 2, 0, 8})
	f.Add([]byte{4, 0xff, 0xff, 1, 0, 1, 0, 0xff, 0xf0, 0, 0, 0})
	f.Add([]byte{0x80, 0xc8, 0, 0x81, 0xff, 0x80, 0x02, 0x7f, 0xe0})
	f.Add([]byte{8, 0x60, 0, 8, 0x60, 0, 0x88, 0x60, 0, 9, 0x10, 0})
	// Runs of acks and of commits with purges among them, a run that
	// crosses memgests, and one broken by an append.
	f.Add([]byte{12, 0, 0, 12, 0, 0, 12, 0, 0, 0x2c, 0, 0, 16, 0, 0, 16, 0, 0,
		20, 0, 0, 24, 0, 0, 20, 0, 0, 24, 0, 0, 0x38, 0, 0, 20, 0, 0, 28, 0, 0, 20, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		var o outputs
		seqs := map[[2]uint8]proto.Seq{} // the next seq of each (kind, memgest)
		for i := 0; i+3 <= len(in) && len(o.outs) < 64; i += 3 {
			to := []string{"peer/a", "peer/b", "peer/c"}[in[i]&3%3]
			kind, mg := in[i]>>2&7, proto.MemgestID(1+in[i]>>5&1)
			size := (int(in[i+1])<<8 | int(in[i+2])) * (1 + int(in[i]>>7))
			tag := uint64(len(o.outs) + 1)
			k := [2]uint8{kind, uint8(mg)}
			seqs[k] += 1 + proto.Seq(in[i]>>6&1)
			seq := seqs[k]
			var m proto.Message
			switch kind {
			case 0:
				m = tagged(tag, size, plain)
			case 1:
				m = tagged(tag, size, fetch)
			case 2:
				m = tagged(tag, size, table)
			case 3:
				m = &proto.RepAck{Memgest: mg, Seq: seq}
			case 4:
				m = &proto.ParityAck{Memgest: mg, Seq: seq}
			case 5:
				m = &proto.RepCommit{Memgest: mg, Seq: seq}
			case 6:
				m = &proto.Purge{Memgest: mg, Key: "key" + strconv.FormatUint(tag, 10), Version: proto.Version(tag)}
			case 7:
				m = &proto.RepAppend{Memgest: mg, Seq: proto.Seq(tag), Rec: proto.MetaRecord{Key: "k", Version: 1, Memgest: mg, Length: uint32(size)}, Value: make([]byte, size)}
			}
			o.add(to, m)
		}
		checkPacked(t, packAll(t, o.outs), o.want)
	})
}
