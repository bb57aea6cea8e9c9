package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/store"
	"ring/internal/testutil"
	"ring/internal/transport"
)

// durClient is a minimal request/reply client for durable cluster
// tests: it sends one message and waits for the matching reply.
type durClient struct {
	t  *testing.T
	ep transport.Endpoint
}

func newDurClient(t *testing.T, cl *Cluster) *durClient {
	t.Helper()
	ep, err := cl.Fabric.Register(fmt.Sprintf("client/%s", t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return &durClient{t: t, ep: ep}
}

// rpc sends msg to addr and returns the first reply whose concrete
// type the caller's match func accepts.
func (c *durClient) rpc(addr string, msg proto.Message, match func(proto.Message) bool) proto.Message {
	c.t.Helper()
	if err := c.ep.Send(addr, proto.Encode(msg)); err != nil {
		c.t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		p, err := c.ep.Recv()
		if err != nil {
			c.t.Fatal(err)
		}
		var got proto.Message
		_ = proto.ForEachPacked(p.Payload, func(enc []byte) error {
			if m, err := proto.Decode(enc); err == nil && got == nil && match(m) {
				got = m
			}
			return nil
		})
		if got != nil {
			return got
		}
	}
	c.t.Fatalf("rpc to %s timed out waiting for reply to %#v", addr, msg)
	return nil
}

func (c *durClient) put(addr string, req proto.ReqID, key string, value []byte) {
	c.t.Helper()
	if st := c.tryPut(addr, req, key, value); st != proto.StOK {
		c.t.Fatalf("put %q: %v", key, st)
	}
}

// tryPut sends one put and returns its reply's status.
func (c *durClient) tryPut(addr string, req proto.ReqID, key string, value []byte) proto.Status {
	c.t.Helper()
	m := c.rpc(addr, &proto.Put{Req: req, Key: key, Value: value}, func(m proto.Message) bool {
		r, ok := m.(*proto.PutReply)
		return ok && r.Req == req
	})
	return m.(*proto.PutReply).Status
}

// get retries through StRetry (node rejoining or recovering) until a
// definitive answer arrives.
func (c *durClient) get(addr string, req proto.ReqID, key string) (proto.Status, []byte) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := c.rpc(addr, &proto.Get{Req: req, Key: key}, func(m proto.Message) bool {
			r, ok := m.(*proto.GetReply)
			return ok && r.Req == req
		})
		r := m.(*proto.GetReply)
		if r.Status != proto.StRetry || time.Now().After(deadline) {
			return r.Status, r.Value
		}
		req += 1000
		time.Sleep(5 * time.Millisecond) //ring:sleepok retry pacing against a live TCP cluster, bounded by the deadline
	}
}

// TestClusterKillRestartRecovers is the end-to-end durability test: a
// coordinator is killed mid-life (kill -9: no clean close, the data
// directory keeps only what fsync made durable), restarted over its
// data directory, re-admitted into its old roles by the leader, and
// must then serve every value it had acknowledged before the crash.
func TestClusterKillRestartRecovers(t *testing.T) {
	spec := ClusterSpec{
		Shards: 3, Redundant: 2, Spares: 1,
		Memgests: []proto.Scheme{proto.Rep(3, 3)},
		// Failure detection slower than the test: the kill/restart cycle
		// races no role substitution, so the durable rejoin path (keep
		// roles, delta-sync) is the one exercised.
		Opts:        Options{FailAfter: 10 * time.Minute},
		TickEvery:   2 * time.Millisecond,
		DataDir:     t.TempDir(),
		DurableOpts: replog.DurableOptions{Policy: replog.FsyncAlways},
	}
	cl, err := StartCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c := newDurClient(t, cl)

	// Pick a victim coordinator that is not the leader, and write a
	// handful of keys it owns.
	var victim proto.NodeID = proto.NilNode
	var keys []string
	for i := 0; len(keys) < 5 && i < 1000; i++ {
		key := fmt.Sprintf("dur-key-%d", i)
		coord := cl.Cfg.CoordinatorOf(store.KeyHash(key))
		if victim == proto.NilNode && coord != cl.Cfg.Leader {
			victim = coord
		}
		if coord == victim {
			keys = append(keys, key)
		}
	}
	if victim == proto.NilNode || len(keys) < 5 {
		t.Fatalf("could not find a non-leader coordinator with 5 keys")
	}
	addr := NodeAddr(victim)
	want := make(map[string][]byte)
	for i, key := range keys {
		val := []byte(fmt.Sprintf("value-of-%s", key))
		c.put(addr, proto.ReqID(i+1), key, val)
		want[key] = val
	}

	// Crash and restart over the same data directory.
	cl.Kill(victim)
	if err := cl.Restart(victim); err != nil {
		t.Fatal(err)
	}

	for i, key := range keys {
		st, val := c.get(addr, proto.ReqID(100+i), key)
		if st != proto.StOK {
			t.Fatalf("get %q after restart: %v", key, st)
		}
		if !bytes.Equal(val, want[key]) {
			t.Fatalf("get %q after restart: value %q, want %q", key, val, want[key])
		}
	}

	// The recovered node must have come back through the durable rejoin
	// path — holding its shard state, not as a wiped spare.
	cl.Runs[victim].Inspect(func(n *Node) {
		if n.Rejoining() {
			t.Error("recovered node still quarantined after serving reads")
		}
		if !n.HasDurable() {
			t.Error("recovered node lost its durable store")
		}
	})
}

// TestClusterRestartAfterCleanStop checks the clean-shutdown half: a
// Stop flushes and closes the WAL, and a restart over the directory
// recovers everything including writes never group-committed by an
// interval fsync.
func TestClusterRestartAfterCleanStop(t *testing.T) {
	spec := ClusterSpec{
		Shards: 3, Redundant: 2,
		Memgests:    []proto.Scheme{proto.Rep(3, 3)},
		Opts:        Options{FailAfter: 10 * time.Minute},
		TickEvery:   2 * time.Millisecond,
		DataDir:     t.TempDir(),
		DurableOpts: replog.DurableOptions{Policy: replog.FsyncInterval, Interval: time.Hour},
	}
	cl, err := StartCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c := newDurClient(t, cl)

	key := "clean-stop-key"
	victim := cl.Cfg.CoordinatorOf(store.KeyHash(key))
	if victim == cl.Cfg.Leader {
		key = "clean-stop-key-b"
		victim = cl.Cfg.CoordinatorOf(store.KeyHash(key))
	}
	if victim == cl.Cfg.Leader {
		t.Skip("both probe keys hash to the leader's shard")
	}
	addr := NodeAddr(victim)
	c.put(addr, 1, key, []byte("survives-clean-stop"))

	// Stop (clean close: flush + fsync even though the interval policy
	// never synced) and restart.
	if r, ok := cl.Runs[victim]; ok {
		r.Stop()
		delete(cl.Runs, victim)
	}
	if err := cl.Restart(victim); err != nil {
		t.Fatal(err)
	}

	st, val := c.get(addr, 2, key)
	if st != proto.StOK {
		t.Fatalf("get after clean stop + restart: %v", st)
	}
	if string(val) != "survives-clean-stop" {
		t.Fatalf("get after clean stop + restart: %q", val)
	}
}

// A put the log cannot hold is refused, not written: a Rep value past
// proto.MaxValue would fail the coordinator's append and crash-stop it
// on client input, and a key past proto.MaxKey would wrap its record's
// key length and read as damage at the next open. The coordinator
// refuses both and takes the next put.
func TestOversizedPutIsRefused(t *testing.T) {
	spec := ClusterSpec{
		Shards: 3, Redundant: 2,
		Memgests:    []proto.Scheme{proto.Rep(3, 3)},
		Opts:        Options{FailAfter: 10 * time.Minute},
		TickEvery:   2 * time.Millisecond,
		DataDir:     t.TempDir(),
		DurableOpts: replog.DurableOptions{Policy: replog.FsyncAlways},
	}
	cl, err := StartCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c := newDurClient(t, cl)
	key := "big"
	addr := NodeAddr(cl.Cfg.CoordinatorOf(store.KeyHash(key)))
	if st := c.tryPut(addr, 1, key, make([]byte, 17<<20)); st != proto.StInvalid {
		t.Fatalf("17 MiB put: %v, want %v", st, proto.StInvalid)
	}
	long := strings.Repeat("k", 70000)
	if st := c.tryPut(NodeAddr(cl.Cfg.CoordinatorOf(store.KeyHash(long))), 2, long, []byte("v")); st != proto.StInvalid {
		t.Fatalf("70000-byte key: %v, want %v", st, proto.StInvalid)
	}
	value := bytes.Repeat([]byte("v"), 1<<10)
	c.put(addr, 3, key, value)
	if st, got := c.get(addr, 4, key); st != proto.StOK || !bytes.Equal(got, value) {
		t.Fatalf("get after the refused puts: %v, %d bytes", st, len(got))
	}
}

// write sends one put, delete or move to addr and fails the test unless
// it is answered OK; a write that finds its key's node recovering is
// sent again.
func (c *durClient) write(addr string, msg proto.Message, req *proto.ReqID) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		*req++
		r := *req
		switch m := msg.(type) {
		case *proto.Put:
			m.Req = r
		case *proto.Delete:
			m.Req = r
		case *proto.Move:
			m.Req = r
		}
		got := c.rpc(addr, msg, func(m proto.Message) bool {
			p, ok := m.(*proto.PutReply)
			return ok && p.Req == r
		}).(*proto.PutReply)
		if got.Status == proto.StOK {
			return
		}
		if got.Status != proto.StRetry || time.Now().After(deadline) {
			c.t.Fatalf("%#v: %v", msg, got.Status)
		}
		time.Sleep(5 * time.Millisecond) //ring:sleepok retry pacing against a recovering node, bounded by the deadline
	}
}

// indexDiff compares a node's durable index with its metadata tables:
// every entry of every table must be a live record of the same shard,
// key and version, as committed as the entry, and what the index holds
// beyond the tables must be appends still open. It returns what
// differs.
func indexDiff(n *Node) []string {
	var diff []string
	committed := 0
	check := func(mg proto.MemgestID, shard uint32, t *store.MetaTable) {
		t.Range(func(e *store.Meta) bool {
			key := t.Key(e)
			c, ok := n.durable.Holds(durKey(mg, shard), key, e.Version)
			switch {
			case !ok:
				diff = append(diff, fmt.Sprintf("tables only: %v shard %d %s@%d", mg, shard, key, e.Version))
			case c != e.Committed():
				diff = append(diff, fmt.Sprintf("%v shard %d %s@%d: committed=%v in the table, %v in the index", mg, shard, key, e.Version, e.Committed(), c))
			case c:
				committed++
			}
			return true
		})
	}
	for id, st := range n.mg {
		for shard, cs := range st.coord {
			check(id, shard, cs.meta)
		}
		for shard, t := range st.rmeta {
			check(id, shard, t)
		}
	}
	if st := n.durable.DurableStats(); st.LiveRecords-st.Unresolved != committed {
		diff = append(diff, fmt.Sprintf("index only: %d committed records, the tables %d", st.LiveRecords-st.Unresolved, committed))
	}
	return diff
}

// TestDurableIndexMatchesTables is the durable tier's state invariant:
// after a Rep(3,3) and SRS(3,2,3) run with overwrites, deletes and
// moves, a kill and restart over the data directory (the node takes its
// roles back from its log) and a redundancy node's failover (the spare
// learns every entry through recovery, with no seq), and more of the
// same writes on top, every node's live-record index holds exactly the
// (shard, key, version) entries of its metadata tables, plus its open
// appends.
func TestDurableIndexMatchesTables(t *testing.T) {
	spec := ClusterSpec{
		Shards: 3, Redundant: 2, Spares: 1,
		Memgests:    []proto.Scheme{proto.Rep(3, 3), proto.SRS(3, 2, 3)},
		Opts:        Options{FailAfter: 300 * time.Millisecond},
		TickEvery:   2 * time.Millisecond,
		DataDir:     t.TempDir(),
		DurableOpts: replog.DurableOptions{Policy: replog.FsyncAlways},
	}
	cl, err := StartCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c := newDurClient(t, cl)
	var req proto.ReqID
	keys := make([]string, 48)
	for i := range keys {
		keys[i] = fmt.Sprintf("idx-key-%d", i)
	}
	addr := func(key string) string { return NodeAddr(cl.Cfg.CoordinatorOf(store.KeyHash(key))) }
	round := func(r int) {
		for i, key := range keys {
			mg := proto.MemgestID(1 + (i+r)%2)
			for v := 0; v < 2; v++ {
				c.write(addr(key), &proto.Put{Key: key, Value: []byte(fmt.Sprintf("%s-%d-%d", key, r, v)), Memgest: mg}, &req)
			}
			switch {
			case i%5 == r:
				c.write(addr(key), &proto.Delete{Key: key}, &req)
			case i%3 == r%3:
				c.write(addr(key), &proto.Move{Key: key, Memgest: 3 - mg}, &req)
			}
		}
	}
	settled := func(what string) {
		t.Helper()
		var diff []string
		ok := testutil.Eventually(10*time.Second, 10*time.Millisecond, func() bool {
			diff = nil
			for id, r := range cl.Runs {
				r.Inspect(func(n *Node) {
					if n.wants.order.Len() > 0 || n.MetricsSnapshot().WritesAwaitingQuorum > 0 {
						diff = append(diff, fmt.Sprintf("node %d: busy", id))
						return
					}
					for _, d := range indexDiff(n) {
						diff = append(diff, fmt.Sprintf("node %d: %s", id, d))
					}
				})
			}
			return len(diff) == 0
		})
		if !ok {
			t.Fatalf("%s: the durable index and the tables differ:\n%s", what, strings.Join(diff, "\n"))
		}
	}

	round(0)
	settled("after the first writes")

	// A coordinator other than the leader dies and comes back over its
	// data directory, within the failure detector's patience.
	victim := cl.Cfg.Coords[0]
	if victim == cl.Cfg.Leader {
		victim = cl.Cfg.Coords[1]
	}
	cl.Kill(victim)
	if err := cl.Restart(victim); err != nil {
		t.Fatal(err)
	}
	round(1)
	settled("after a restart")

	// A redundancy node dies for good: the spare takes its roles and
	// learns their entries through recovery.
	gone := cl.Cfg.Redundant[1]
	cl.Kill(gone)
	spare := cl.Cfg.Spares[0]
	if !testutil.Eventually(10*time.Second, 10*time.Millisecond, func() bool {
		var ok bool
		cl.Runs[spare].Inspect(func(n *Node) { ok = slices.Contains(n.Config().Redundant, spare) && n.wants.order.Len() == 0 })
		return ok
	}) {
		t.Fatal("the spare never took over")
	}
	settled("after the failover")
	bare := 0
	cl.Runs[spare].Inspect(func(n *Node) {
		for id, st := range n.mg {
			for shard, t := range st.rmeta {
				t.Range(func(e *store.Meta) bool {
					if _, ok := n.durable.Holds(durKey(id, shard), t.Key(e), e.Version); ok && e.Seq == 0 {
						bare++
					}
					return true
				})
			}
		}
	})
	if bare == 0 {
		t.Fatal("the spare's index holds no entry recovery installed: the run does not cover them")
	}
	round(2)
	settled("after writes over the recovered entries")
}

// TestReusedVersionLeavesOneRecord: a coordinator that allocates a
// version again sends it under a new seq to a replica that holds it.
// The table keeps one entry, and so must the durable index, which files
// both appends under the hash of the same key and version.
func TestReusedVersionLeavesOneRecord(t *testing.T) {
	spec := ClusterSpec{
		Shards: 3, Redundant: 2,
		Memgests:    []proto.Scheme{proto.Rep(3, 3)},
		Opts:        Options{FailAfter: 10 * time.Minute},
		TickEvery:   2 * time.Millisecond,
		DataDir:     t.TempDir(),
		DurableOpts: replog.DurableOptions{Policy: replog.FsyncAlways},
	}
	cl, err := StartCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c := newDurClient(t, cl)
	const key = "reused"
	h := store.KeyHash(key)
	c.put(NodeAddr(cl.Cfg.CoordinatorOf(h)), 1, key, []byte("old"))
	replica, shard := cl.Runs[cl.Cfg.Redundant[0]], uint32(cl.Cfg.ShardOf(h))
	var seq proto.Seq
	if !testutil.Eventually(10*time.Second, 5*time.Millisecond, func() bool {
		replica.Inspect(func(n *Node) {
			if e := n.mg[1].rmeta[shard].Get(key, 1); e != nil && e.Committed() {
				seq = e.Seq
			}
		})
		return seq != 0
	}) {
		t.Fatal("the replica never committed the put")
	}
	reuse := &proto.RepAppend{Memgest: 1, Shard: shard, Seq: seq + 100, Value: []byte("new"),
		Rec: proto.MetaRecord{Key: key, Version: 1, Memgest: 1, Length: 3}}
	c.rpc(NodeAddr(cl.Cfg.Redundant[0]), reuse, func(m proto.Message) bool {
		a, ok := m.(*proto.RepAck)
		return ok && a.Seq == seq+100
	})
	replica.Inspect(func(n *Node) {
		if diff := indexDiff(n); len(diff) > 0 {
			t.Errorf("after version 1 came again under seq %d (it had %d):\n%s", seq+100, seq, strings.Join(diff, "\n"))
		}
	})
}
