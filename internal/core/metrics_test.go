package core

import (
	"fmt"
	"testing"
	"time"

	"ring/internal/metrics"
	"ring/internal/proto"
	"ring/internal/store"
	"ring/internal/transport"
)

// soloNode builds a single node that coordinates everything with an
// unreliable Rep(1,1) memgest, so puts commit in one event and the
// whole data path runs inside HandleMessage.
func soloNode(t *testing.T) *Node {
	t.Helper()
	cfg, err := BootConfig(ClusterSpec{Shards: 1, Memgests: []proto.Scheme{proto.Rep(1, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	return New(0, cfg, Options{})
}

// TestNodeMetricsExactCounts drives a scripted workload through the
// state machine and requires the per-memgest counters, the commit
// histograms, and the trace ring to match it exactly — the contract
// /debug/ringvars exposes.
func TestNodeMetricsExactCounts(t *testing.T) {
	n := soloNode(t)
	now := time.Duration(0)
	step := func(msg proto.Message) []Out {
		now += time.Millisecond
		return n.deliver(now, "client/1", msg)
	}
	const puts, gets = 5, 3
	for i := 0; i < puts; i++ {
		outs := step(&proto.Put{Req: proto.ReqID(i + 1), Key: fmt.Sprintf("k%d", i), Value: []byte("v")})
		if r := outs[0].Msg.(*proto.PutReply); r.Status != proto.StOK {
			t.Fatalf("put %d: %v", i, r.Status)
		}
	}
	for i := 0; i < gets; i++ {
		outs := step(&proto.Get{Req: proto.ReqID(100 + i), Key: fmt.Sprintf("k%d", i)})
		if r := outs[0].Msg.(*proto.GetReply); r.Status != proto.StOK {
			t.Fatalf("get %d: %v", i, r.Status)
		}
	}
	outs := step(&proto.Delete{Req: 200, Key: "k0"})
	if r := outs[0].Msg.(*proto.DeleteReply); r.Status != proto.StOK {
		t.Fatalf("delete: %v", r.Status)
	}

	s := n.MetricsSnapshot()
	mg := s.Memgests[1]
	if mg.Puts != puts || mg.Gets != gets || mg.Deletes != 1 || mg.Moves != 0 {
		t.Fatalf("memgest counts = %+v", mg)
	}
	if want := uint64(puts + 1); mg.Commits != want {
		t.Fatalf("commits = %d, want %d", mg.Commits, want)
	}
	if s.CommitRep.Count != uint64(puts+1) || s.CommitSRS.Count != 0 {
		t.Fatalf("commit histograms: rep=%d srs=%d", s.CommitRep.Count, s.CommitSRS.Count)
	}
	if s.Events != uint64(puts+gets+1) {
		t.Fatalf("events = %d", s.Events)
	}
	// Every client-visible op leaves a trace entry: puts and the delete
	// at commit, gets at serve.
	if want := uint64(puts + gets + 1); s.TraceRecorded != want {
		t.Fatalf("trace recorded = %d, want %d", s.TraceRecorded, want)
	}
	last := n.TraceLast(0)
	if got := last[len(last)-1]; got.Op != metrics.TraceDelete || got.KeyString() != "k0" {
		t.Fatalf("newest trace entry = %v %q", got.Op, got.KeyString())
	}
	for _, e := range last[:puts] {
		if e.Op != metrics.TracePut {
			t.Fatalf("expected put trace entries first, got %v", e.Op)
		}
	}
}

// TestPerMemgestCountersSplitBySchemes checks ops land on the memgest
// they executed against, and SRS commits feed the SRS histogram.
func TestPerMemgestCountersSplitBySchemes(t *testing.T) {
	spec := ClusterSpec{
		Shards: 3, Redundant: 2,
		Memgests:  []proto.Scheme{proto.Rep(3, 3), proto.SRS(3, 2, 3)},
		Opts:      Options{HeartbeatEvery: time.Minute, FailAfter: 10 * time.Minute},
		TickEvery: time.Minute,
	}
	cl, err := StartCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ep, err := cl.Fabric.Register("client/t")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	put := func(req proto.ReqID, key string, mg proto.MemgestID) {
		t.Helper()
		coord := NodeAddr(cl.Cfg.CoordinatorOf(store.KeyHash(key)))
		if err := ep.Send(coord, proto.Encode(&proto.Put{Req: req, Key: key, Value: []byte("x"), Memgest: mg})); err != nil {
			t.Fatal(err)
		}
		for {
			p, err := ep.Recv()
			if err != nil {
				t.Fatal(err)
			}
			var done bool
			_ = proto.ForEachPacked(p.Payload, func(enc []byte) error {
				if m, err := proto.Decode(enc); err == nil {
					if r, ok := m.(*proto.PutReply); ok && r.Req == req {
						if r.Status != proto.StOK {
							t.Fatalf("put %s: %v", key, r.Status)
						}
						done = true
					}
				}
				return nil
			})
			if done {
				return
			}
		}
	}
	const perMg = 4
	for i := 0; i < perMg; i++ {
		put(proto.ReqID(i+1), fmt.Sprintf("rep-%d", i), 1)
		put(proto.ReqID(100+i), fmt.Sprintf("srs-%d", i), 2)
	}

	var total map[proto.MemgestID]MemgestOpCounts
	var repLat, srsLat uint64
	total = make(map[proto.MemgestID]MemgestOpCounts)
	for _, r := range cl.Runs {
		r.Inspect(func(n *Node) {
			s := n.MetricsSnapshot()
			for id, c := range s.Memgests {
				agg := total[id]
				agg.Add(c)
				total[id] = agg
			}
			repLat += s.CommitRep.Count
			srsLat += s.CommitSRS.Count
		})
	}
	if total[1].Puts != perMg || total[2].Puts != perMg {
		t.Fatalf("per-memgest puts = %d/%d, want %d each", total[1].Puts, total[2].Puts, perMg)
	}
	if repLat != perMg || srsLat != perMg {
		t.Fatalf("commit latency samples rep=%d srs=%d, want %d each", repLat, srsLat, perMg)
	}
}

// TestInstrumentedHotPathAllocs pins the end-to-end allocation cost of
// a put and a get running through the fully instrumented state machine.
// The ceilings equal the measured pre-instrumentation baseline (the
// path's intrinsic costs: reply struct, stored entry/value, closure
// captures) — the counters, histograms, and trace ring contribute
// exactly zero, as internal/metrics pins separately, so any increase
// here is a real hot-path regression.
func TestInstrumentedHotPathAllocs(t *testing.T) {
	n := soloNode(t)
	now := time.Duration(0)
	val := []byte("value-bytes")
	// Warm up: first put creates the shard index and key entries.
	n.deliver(now, "client/1", &proto.Put{Req: 1, Key: "hot", Value: val})

	req := proto.ReqID(2)
	putAllocs := testing.AllocsPerRun(100, func() {
		now += time.Millisecond
		req++
		n.deliver(now, "client/1", &proto.Put{Req: req, Key: "hot", Value: val})
	})
	getAllocs := testing.AllocsPerRun(100, func() {
		now += time.Millisecond
		req++
		// The reply carries a pooled copy of the value; hand it back as
		// the runner's flush does once the packet holds the bytes.
		for _, o := range n.deliver(now, "client/1", &proto.Get{Req: req, Key: "hot"}) {
			transport.ReleaseBuf(o.Scratch)
		}
	})
	// Put: reply struct + stored entry + index/GC churn. The value copy
	// is not among them: it goes into a slot of the table's arena.
	if putAllocs > 7 {
		t.Errorf("instrumented put path: %.1f allocs/op, want <= 7", putAllocs)
	}
	// Get: reply struct + the fail-closure capture.
	if getAllocs > 2 {
		t.Errorf("instrumented get path: %.1f allocs/op, want <= 2", getAllocs)
	}
}
