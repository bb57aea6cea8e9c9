package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/store"
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
		Opts:        Options{HeartbeatEvery: 20 * time.Millisecond, FailAfter: 10 * time.Minute},
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
		Opts:        Options{HeartbeatEvery: 20 * time.Millisecond, FailAfter: 10 * time.Minute},
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
		Opts:        Options{HeartbeatEvery: 20 * time.Millisecond, FailAfter: 10 * time.Minute},
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
