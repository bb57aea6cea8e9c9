package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ring/internal/proto"
	"ring/internal/store"
	"ring/internal/testutil"
	"ring/internal/transport"
)

// TestFlushCoalescesPerDestination pins the coalescing contract of the
// host's send path, the runner's and the simulator's: one batch's
// outputs to the same peer leave as a single packet, in order, while
// singletons stay plain envelopes. (The purge is of another memgest
// than the commits, so nothing folds: TestPackFoldsRuns.)
func TestFlushCoalescesPerDestination(t *testing.T) {
	f := transport.NewMemFabric(0)
	a, err := f.Register("peer/a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Register("peer/b")
	if err != nil {
		t.Fatal(err)
	}
	self, err := f.Register("self")
	if err != nil {
		t.Fatal(err)
	}
	host := &Host{Node: New(0, &proto.Config{Epoch: 1}, Options{})}

	outs := []Out{
		{To: "peer/a", Msg: &proto.RepCommit{Memgest: 1, Shard: 0, Seq: 7}},
		{To: "peer/b", Msg: &proto.Heartbeat{Epoch: 3}},
		{To: "peer/a", Msg: &proto.Purge{Memgest: 2, Shard: 0, Key: "k", Version: 1}},
		{To: "peer/a", Msg: &proto.RepCommit{Memgest: 1, Shard: 0, Seq: 8}},
	}
	host.Pack(outs, self.Send)
	for i, o := range outs {
		if o.To != "" || o.Msg != nil || o.Scratch != nil {
			t.Errorf("outs[%d] not cleared after Pack: %+v", i, o)
		}
	}

	// Sentinels: if Pack had emitted more than one packet per peer,
	// the extra packet would arrive before the sentinel.
	if err := self.Send("peer/a", proto.Encode(&proto.Heartbeat{Epoch: 9})); err != nil {
		t.Fatal(err)
	}
	if err := self.Send("peer/b", proto.Encode(&proto.Heartbeat{Epoch: 9})); err != nil {
		t.Fatal(err)
	}

	pa, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !proto.IsBatch(pa.Payload) {
		t.Fatalf("3 messages to peer/a should arrive as one TBatch packet, got type %d", pa.Payload[0])
	}
	var got []proto.Message
	if err := proto.ForEachPacked(pa.Payload, func(enc []byte) error {
		m, err := proto.Decode(enc)
		if err != nil {
			return err
		}
		got = append(got, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("peer/a batch carries %d messages, want 3", len(got))
	}
	if c, ok := got[0].(*proto.RepCommit); !ok || c.Seq != 7 {
		t.Fatalf("batch[0] = %#v, want RepCommit seq 7", got[0])
	}
	if p, ok := got[1].(*proto.Purge); !ok || p.Key != "k" {
		t.Fatalf("batch[1] = %#v, want Purge k", got[1])
	}
	if c, ok := got[2].(*proto.RepCommit); !ok || c.Seq != 8 {
		t.Fatalf("batch[2] = %#v, want RepCommit seq 8", got[2])
	}
	if p, err := a.Recv(); err != nil {
		t.Fatal(err)
	} else if m, _ := proto.Decode(p.Payload); m == nil {
		t.Fatalf("sentinel did not decode")
	} else if h, ok := m.(*proto.Heartbeat); !ok || h.Epoch != 9 {
		t.Fatalf("extra packet to peer/a before sentinel: %#v", m)
	}

	pb, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if proto.IsBatch(pb.Payload) {
		t.Fatal("single message to peer/b must stay a plain envelope")
	}
	if m, _ := proto.Decode(pb.Payload); m == nil {
		t.Fatal("peer/b packet did not decode")
	} else if h, ok := m.(*proto.Heartbeat); !ok || h.Epoch != 3 {
		t.Fatalf("peer/b got %#v", m)
	}
}

// packetCounter taps every fabric send without dropping anything.
type packetCounter struct {
	mu     sync.Mutex
	counts map[[2]string]int
}

func (pc *packetCounter) tap(from, to string) bool {
	pc.mu.Lock()
	pc.counts[[2]string{from, to}]++
	pc.mu.Unlock()
	return false
}

func (pc *packetCounter) get(from, to string) int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.counts[[2]string{from, to}]
}

// TestFanoutOnePacketPerPeerPerEvent verifies end to end, by counting
// memnet packets, that a coordinator's write fan-out costs one
// transport send per destination peer per event: the append/update
// event is one packet per redundancy node, and the commit event —
// which carries both the RepCommit and the Purge of the superseded
// version to the same peer — is one more.
func TestFanoutOnePacketPerPeerPerEvent(t *testing.T) {
	for _, tc := range []struct {
		name string
		mg   proto.MemgestID
	}{
		{"REP3", 1},
		{"SRS32", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := ClusterSpec{
				Shards: 3, Redundant: 2,
				Memgests: []proto.Scheme{proto.Rep(3, 3), proto.SRS(3, 2, 3)},
				// Quiesce all timer traffic: the only packets during the
				// measurement window come from the puts themselves.
				Opts:      Options{BlockSize: 64 << 10, FailAfter: 10 * time.Minute},
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

			key := "fanout-key"
			coord := NodeAddr(cl.Cfg.CoordinatorOf(store.KeyHash(key)))
			put := func(req proto.ReqID) {
				t.Helper()
				msg := &proto.Put{Req: req, Key: key, Value: make([]byte, 512), Memgest: tc.mg}
				if err := ep.Send(coord, proto.Encode(msg)); err != nil {
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
									t.Fatalf("put: %v", r.Status)
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

			// The client reply is flushed before the commit-event packets
			// to the redundancy peers; poll until they land instead of
			// guessing a fixed delay. A timeout falls through to the
			// exact-count assertions below, which report the shortfall.
			pc := &packetCounter{counts: make(map[[2]string]int)}
			cl.Fabric.SetDropFunc(pc.tap)
			landed := func(n int) {
				testutil.Eventually(5*time.Second, time.Millisecond, func() bool {
					return pc.get(coord, NodeAddr(3)) >= n && pc.get(coord, NodeAddr(4)) >= n
				})
			}
			put(1) // version 1 commits; nothing to purge yet
			landed(2)
			before := map[proto.NodeID]int{3: pc.get(coord, NodeAddr(3)), 4: pc.get(coord, NodeAddr(4))}
			put(2) // overwrite: append event + commit event (commit+purge)
			landed(4)
			cl.Fabric.SetDropFunc(nil)

			for _, peer := range []proto.NodeID{3, 4} {
				got := pc.get(coord, NodeAddr(peer)) - before[peer]
				if got != 2 {
					t.Errorf("%s -> %s: %d packets for one overwrite put, want 2 (append event + coalesced commit event)",
						coord, NodeAddr(peer), got)
				}
			}
		})
	}
}

// TestRunnerOverTCPStopsAndKills: a runner over the TCP fabric polls
// the endpoint itself, as it does over memnet — one event-loop
// goroutine — serves a request that way, and both Stop and Kill return
// with the loop gone.
func TestRunnerOverTCPStopsAndKills(t *testing.T) {
	cfg, err := BootConfig(ClusterSpec{Shards: 1, Redundant: 0, Memgests: []proto.Scheme{proto.Rep(1, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	for name, stop := range map[string]func(*Runner){"Stop": (*Runner).Stop, "Kill": (*Runner).Kill} {
		t.Run(name, func(t *testing.T) {
			before := RunnerGoroutines.Load()
			fabric := transport.NewTCPFabric()
			r, err := StartRunner(New(0, cfg, Options{}), fabric, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if got := RunnerGoroutines.Load(); got != before+1 {
				t.Fatalf("%d runner goroutines, want %d", got, before+1)
			}
			fabric.Map(NodeAddr(0), transport.BoundAddr(r.ep))
			client, err := fabric.Register("client/t")
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if err := client.Send(NodeAddr(0), proto.Encode(&proto.Get{Req: 1, Key: "absent"})); err != nil {
				t.Fatal(err)
			}
			pkt, err := client.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m, err := proto.Decode(pkt.Payload); err != nil || m.(*proto.GetReply).Status != proto.StNotFound {
				t.Fatalf("get over TCP answered %+v, %v", m, err)
			}
			stopped := make(chan struct{})
			go func() {
				stop(r)
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s did not return", name)
			}
			if got := RunnerGoroutines.Load(); got != before {
				t.Fatalf("%d runner goroutines after %s, want %d", got, name, before)
			}
		})
	}
}

// TestTCPRunnerIsOneGoroutine: on Linux a runner over the TCP fabric is
// its event loop and nothing else, as the paper's servers are one
// thread: it polls its listener and every connection itself, so the
// process runs as many goroutines with six peers connected and answered
// as with one, and one more than before the runner started.
func TestTCPRunnerIsOneGoroutine(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("off Linux a read loop per connection feeds the runner")
	}
	cfg, err := BootConfig(ClusterSpec{Shards: 1, Memgests: []proto.Scheme{proto.Rep(1, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	fabric := transport.NewTCPFabric()
	r, err := StartRunner(New(0, cfg, Options{}), fabric, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	fabric.Map(NodeAddr(0), transport.BoundAddr(r.ep))
	ask := func(i int) {
		t.Helper()
		peer, err := fabric.Register(fmt.Sprintf("client/%d", i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { peer.Close() })
		if err := peer.Send(NodeAddr(0), proto.Encode(&proto.Get{Req: 1, Key: "absent"})); err != nil {
			t.Fatal(err)
		}
		if _, err := peer.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	count := func(peers int) int {
		t.Helper()
		// A goroutine an earlier test left may still be ending.
		n := runtime.NumGoroutine()
		testutil.Eventually(2*time.Second, 10*time.Millisecond, func() bool { n = runtime.NumGoroutine(); return n <= before+1 })
		if n > before+1 {
			t.Fatalf("%d goroutines with a tcp runner and %d peers, %d before the runner: want one more", n, peers, before)
		}
		return n
	}
	ask(1)
	one := count(1)
	for i := 2; i <= 6; i++ {
		ask(i)
	}
	if six := count(6); six != one {
		t.Fatalf("%d goroutines with six peers, %d with one", six, one)
	}
}
