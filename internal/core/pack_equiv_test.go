package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/store"
	"ring/internal/transport"
	"ring/internal/wal"
)

// packetNet runs a cluster of hosts on packets, a batch per node per
// round: a node takes every packet queued for it, in order, and sends
// what its Flush returns either as Pack packs it (fold) or one message
// to a packet, in output order. The two differ only in the runs Pack
// folds: the batches are the same.
type packetNet struct {
	t     *testing.T
	fold  bool
	ids   []proto.NodeID
	hosts map[proto.NodeID]*Host
	disks map[proto.NodeID]*wal.MemFS
	inbox map[string][]packet
	now   time.Duration

	// What the folded packets carried: messages, and the entries and
	// purges in runs, so that the test can say it folded something.
	msgs, runs, carried int
}

type packet struct {
	from string
	pkt  []byte
}

func newPacketNet(t *testing.T, spec ClusterSpec, durable, fold bool) *packetNet {
	cfg, err := BootConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := &packetNet{t: t, fold: fold, hosts: map[proto.NodeID]*Host{}, disks: map[proto.NodeID]*wal.MemFS{}, inbox: map[string][]packet{}}
	for _, id := range cfg.AllNodes() {
		n := New(id, cfg.Clone(), spec.Opts)
		if durable {
			fsys := wal.NewMemFS()
			d, err := replog.OpenDurable(fsys, replog.DurableOptions{Policy: replog.FsyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			n.SetDurable(d)
			p.disks[id] = fsys
		}
		p.hosts[id] = &Host{Node: n}
		p.ids = append(p.ids, id)
	}
	sort.Slice(p.ids, func(i, j int) bool { return p.ids[i] < p.ids[j] })
	return p
}

func (p *packetNet) send(from, to string, pkt []byte) {
	if !strings.HasPrefix(to, "node/") {
		transport.ReleaseBuf(pkt) // a reply to the client
		return
	}
	p.inbox[to] = append(p.inbox[to], packet{from: from, pkt: pkt})
}

// client queues one client request for the coordinator of key.
func (p *packetNet) client(key string, m proto.Message) {
	cfg := p.hosts[p.ids[0]].Node.Config()
	p.send("client/equiv", NodeAddr(cfg.CoordinatorOf(store.KeyHash(key))), proto.AppendEncode(nil, m))
}

// run delivers rounds of batches until no packet is left.
func (p *packetNet) run() {
	for round := 0; ; round++ {
		if round > 1000 {
			p.t.Fatal("no quiescence")
		}
		busy := false
		for _, id := range p.ids {
			addr := NodeAddr(id)
			in := p.inbox[addr]
			if len(in) == 0 {
				continue
			}
			busy = true
			delete(p.inbox, addr)
			h := p.hosts[id]
			for _, q := range in {
				h.Deliver(p.now, q.from, q.pkt)
				transport.ReleaseBuf(q.pkt)
			}
			outs, err := h.Node.Flush()
			if err != nil {
				p.t.Fatal(err)
			}
			if p.fold {
				h.Pack(outs, func(to string, pkt []byte) error {
					p.count(pkt)
					p.send(addr, to, pkt)
					return nil
				})
				continue
			}
			for i, o := range outs {
				p.send(addr, o.To, proto.AppendEncode(transport.AcquireBufSize(proto.SizeHint(o.Msg)), o.Msg))
				if o.Scratch != nil {
					transport.ReleaseBuf(o.Scratch)
				}
				release(o.Msg)
				outs[i] = Out{}
			}
		}
		p.now += time.Microsecond
		if !busy {
			return
		}
	}
}

func (p *packetNet) count(pkt []byte) {
	_ = proto.ForEachPacked(pkt, func(enc []byte) error {
		p.msgs++
		m, err := proto.Decode(enc)
		if err != nil {
			p.t.Fatalf("Pack sent a message that does not decode: %v", err)
		}
		switch m := m.(type) {
		case *proto.RepAck:
			p.runs += int(m.More)
		case *proto.ParityAck:
			p.runs += int(m.More)
		case *proto.RepCommit:
			p.runs += int(m.More)
			m.EachPurge(func(string, proto.Version) { p.carried++ })
		}
		proto.Release(m)
		return nil
	})
}

// state renders what a node holds: every table, coordinator's and
// redundancy copy's, entry by entry with its value; the seq index of
// the redundancy side; the pending commits; the parity blocks; and,
// for a durable node, what its log replays to.
func (p *packetNet) state(id proto.NodeID) string {
	n := p.hosts[id].Node
	var b strings.Builder
	table := func(what string, t *store.MetaTable) {
		var lines []string
		t.Range(func(e *store.Meta) bool {
			v, held := e.Bytes()
			if !held {
				v = nil
			}
			lines = append(lines, fmt.Sprintf("  %q v%d seq %d mg %d committed %v tombstone %v len %d ext %+v value %x\n",
				t.Key(e), e.Version, e.Seq, e.Memgest, e.Committed(), e.Tombstone(), e.Length, e.Extent(), v))
			return true
		})
		sort.Strings(lines)
		fmt.Fprintf(&b, "%s:\n%s", what, strings.Join(lines, ""))
	}
	mgs := make([]proto.MemgestID, 0, len(n.mg))
	for mg := range n.mg {
		mgs = append(mgs, mg)
	}
	sort.Slice(mgs, func(i, j int) bool { return mgs[i] < mgs[j] })
	for _, mg := range mgs {
		st := n.mg[mg]
		for shard := range uint32(8) {
			if cs := st.coord[shard]; cs != nil {
				table(fmt.Sprintf("memgest %d shard %d coordinator", mg, shard), cs.meta)
				seqs := make([]proto.Seq, 0, len(cs.pending))
				for s := range cs.pending {
					seqs = append(seqs, s)
				}
				sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
				for _, s := range seqs {
					fmt.Fprintf(&b, " pending %d: %+v\n", s, cs.pending[s])
				}
			}
			if rt := st.rmeta[shard]; rt != nil {
				table(fmt.Sprintf("memgest %d shard %d redundancy", mg, shard), rt)
				seqs := make([]proto.Seq, 0, len(st.rseq[shard]))
				for s := range st.rseq[shard] {
					seqs = append(seqs, s)
				}
				sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
				for _, s := range seqs {
					fmt.Fprintf(&b, " rseq %d: %+v\n", s, st.rseq[shard][s])
				}
			}
		}
		if st.parity != nil {
			for t := range st.parity.Stripes() {
				fmt.Fprintf(&b, "memgest %d parity block %d: %x\n", mg, t, st.parity.Block(t))
			}
		}
	}
	if fsys := p.disks[id]; fsys != nil {
		if err := n.CloseDurable(); err != nil {
			p.t.Fatal(err)
		}
		d, err := replog.OpenDurable(fsys, replog.DurableOptions{Policy: replog.FsyncAlways})
		if err != nil {
			p.t.Fatal(err)
		}
		rec := d.Recovered()
		sks := make([]replog.ShardKey, 0, len(rec))
		for sk := range rec {
			sks = append(sks, sk)
		}
		sort.Slice(sks, func(i, j int) bool { return sks[i].Less(sks[j]) })
		for _, sk := range sks {
			fmt.Fprintf(&b, "replayed %+v: %+v\n", sk, *rec[sk])
		}
		if err := d.Close(); err != nil {
			p.t.Fatal(err)
		}
	}
	return b.String()
}

// TestPackedRunsApplyAsSingles: the same batches of interleaved puts,
// overwrites, deletes and moves between Rep(3,3) and SRS(3,2,3), volatile
// and durable, leave every node with the same tables, seq index, pending
// commits, parity and durable replay whether their outputs travel folded
// into runs by Pack or one message to a packet. The folded run must have
// folded acks, commits and purges for the test to hold anything.
func TestPackedRunsApplyAsSingles(t *testing.T) {
	const rep, srs = proto.MemgestID(1), proto.MemgestID(2)
	spec := ClusterSpec{
		Shards: 3, Redundant: 2,
		Memgests: []proto.Scheme{proto.Rep(3, 3), proto.SRS(3, 2, 3)},
		Opts:     Options{BlockSize: 4096},
	}
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "volatile", true: "durable"}[durable], func(t *testing.T) {
			nets := []*packetNet{newPacketNet(t, spec, durable, true), newPacketNet(t, spec, durable, false)}
			for round := range 12 {
				for _, p := range nets {
					for i := range 16 {
						key := fmt.Sprintf("key-%02d", i)
						mg := []proto.MemgestID{rep, srs}[(i+round/3)%2]
						req := proto.ReqID(round*16 + i + 1)
						var m proto.Message
						switch (i*7 + round) % 6 {
						case 0, 1, 2:
							m = &proto.Put{Req: req, Key: key, Value: []byte(fmt.Sprintf("value %d of %s", round, key)), Memgest: mg}
						case 3:
							m = &proto.Delete{Req: req, Key: key}
						case 4:
							m = &proto.Move{Req: req, Key: key, Memgest: rep ^ srs ^ mg}
						case 5:
							m = &proto.Put{Req: req, Key: key, Value: nil, Memgest: mg}
						}
						p.client(key, m)
					}
					p.run()
				}
			}
			folded, single := nets[0], nets[1]
			for _, id := range folded.ids {
				if a, b := folded.state(id), single.state(id); a != b {
					t.Fatalf("node %d differs:\nfolded into runs:\n%s\none message a packet:\n%s", id, a, b)
				}
			}
			if folded.runs == 0 || folded.carried == 0 {
				t.Fatalf("the folded net sent %d messages with %d entries in runs and %d carried purges: nothing to compare", folded.msgs, folded.runs, folded.carried)
			}
			t.Logf("%d messages folded into runs of %d more entries and %d carried purges", folded.msgs, folded.runs, folded.carried)
		})
	}
}
