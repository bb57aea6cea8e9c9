package client

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/testutil"
)

// TestMain switches payload poisoning on for every cluster these tests
// drive: a handler that keeps a view into a packet past its return
// reads 0xDB (see core.PoisonPayloads).
func TestMain(m *testing.M) {
	core.PoisonPayloads = true
	os.Exit(m.Run())
}

func testSpec() core.ClusterSpec {
	return core.ClusterSpec{
		Shards: 3, Redundant: 2, Spares: 2,
		Memgests: []proto.Scheme{
			proto.Rep(1, 3),
			proto.Rep(3, 3),
			proto.SRS(2, 1, 3),
			proto.SRS(3, 2, 3),
		},
		Opts: core.Options{
			BlockSize:      16 << 10,
			HeartbeatEvery: 20 * time.Millisecond,
			FailAfter:      120 * time.Millisecond,
		},
		TickEvery: 10 * time.Millisecond,
	}
}

func startCluster(t *testing.T) (*core.Cluster, *Client) {
	t.Helper()
	cl, err := core.StartCluster(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c, err := Dial(cl.Fabric, []string{core.NodeAddr(0)}, Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return cl, c
}

func TestLivePutGetDelete(t *testing.T) {
	_, c := startCluster(t)
	for mgi, mg := range []proto.MemgestID{1, 2, 3, 4} {
		key := fmt.Sprintf("live-%d", mgi)
		val := bytes.Repeat([]byte{byte(mgi)}, 1024)
		ver, err := c.PutIn(key, val, mg)
		if err != nil || ver != 1 {
			t.Fatalf("put %s: v%d %v", key, ver, err)
		}
		got, ver, err := c.Get(key)
		if err != nil || ver != 1 || !bytes.Equal(got, val) {
			t.Fatalf("get %s: v%d %v", key, ver, err)
		}
		if err := c.Delete(key); err != nil {
			t.Fatalf("delete %s: %v", key, err)
		}
		if _, _, err := c.Get(key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("get deleted %s: %v", key, err)
		}
	}
}

func TestLiveDefaultMemgest(t *testing.T) {
	_, c := startCluster(t)
	if _, err := c.Put("defkey", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.SetDefaultMemgest(4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("defkey2", []byte("w")); err != nil {
		t.Fatal(err)
	}
	sc, err := c.GetMemgestDescriptor(4)
	if err != nil || sc.Kind != proto.SchemeSRS || sc.K != 3 || sc.M != 2 {
		t.Fatalf("descriptor: %v %v", sc, err)
	}
}

func TestLiveMove(t *testing.T) {
	_, c := startCluster(t)
	val := bytes.Repeat([]byte("z"), 2048)
	if _, err := c.PutIn("mv", val, 1); err != nil {
		t.Fatal(err)
	}
	for _, mg := range []proto.MemgestID{4, 2, 3, 1} {
		if _, err := c.Move("mv", mg); err != nil {
			t.Fatalf("move to %d: %v", mg, err)
		}
		got, _, err := c.Get("mv")
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("get after move to %d: %v", mg, err)
		}
	}
	if _, err := c.Move("absent", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("move missing: %v", err)
	}
}

func TestLiveCreateMemgest(t *testing.T) {
	_, c := startCluster(t)
	id, err := c.CreateMemgest(proto.SRS(2, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutIn("newk", []byte("v"), id); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Get("newk")
	if err != nil || string(got) != "v" {
		t.Fatalf("get: %q %v", got, err)
	}
	if err := c.DeleteMemgest(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutIn("newk2", []byte("v"), id); err == nil {
		t.Fatal("put into deleted memgest succeeded")
	}
}

func TestLiveConcurrentClients(t *testing.T) {
	cl, _ := startCluster(t)
	const clients, per = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(cl.Fabric, []string{core.NodeAddr(0)}, Options{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			mg := proto.MemgestID(ci%4 + 1)
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("cc-%d-%d", ci, i)
				val := []byte(key)
				if _, err := c.PutIn(key, val, mg); err != nil {
					errs <- fmt.Errorf("put %s: %w", key, err)
					return
				}
				got, _, err := c.Get(key)
				if err != nil || !bytes.Equal(got, val) {
					errs <- fmt.Errorf("get %s: %v", key, err)
					return
				}
			}
			errs <- nil
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestLiveContendedKey(t *testing.T) {
	// Multiple clients hammer one key; versions must be unique and
	// strictly increasing per the strong-consistency contract.
	cl, _ := startCluster(t)
	const writers, per = 3, 20
	vers := make(chan proto.Version, writers*per)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(cl.Fabric, []string{core.NodeAddr(0)}, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			mg := proto.MemgestID(w%2*3 + 1) // alternate REP1 / SRS32
			for i := 0; i < per; i++ {
				v, err := c.PutIn("hot", []byte(fmt.Sprintf("w%d-%d", w, i)), mg)
				if err != nil {
					t.Errorf("put: %v", err)
					return
				}
				vers <- v
			}
		}(w)
	}
	wg.Wait()
	close(vers)
	seen := make(map[proto.Version]bool)
	max := proto.Version(0)
	count := 0
	for v := range vers {
		if seen[v] {
			t.Fatalf("version %d assigned twice", v)
		}
		seen[v] = true
		if v > max {
			max = v
		}
		count++
	}
	if int(max) != count {
		t.Fatalf("versions not dense: max=%d count=%d", max, count)
	}
}

func TestLiveCoordinatorFailover(t *testing.T) {
	cl, c := startCluster(t)
	keys := make(map[string][]byte)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("fo-%d", i)
		val := bytes.Repeat([]byte{byte(i)}, 512)
		mg := []proto.MemgestID{2, 3, 4}[i%3] // only reliable schemes
		if _, err := c.PutIn(key, val, mg); err != nil {
			t.Fatal(err)
		}
		keys[key] = val
	}
	// Kill a non-leader coordinator.
	cl.Kill(1)
	// Wait for reconfiguration to propagate.
	reconfigured := testutil.Eventually(10*time.Second, 20*time.Millisecond, func() bool {
		var epoch proto.Epoch
		cl.Runs[0].Inspect(func(n *core.Node) { epoch = n.Config().Epoch })
		return epoch >= 2
	})
	if !reconfigured {
		t.Fatal("cluster never reconfigured")
	}
	// All keys must be readable post-failover (client retries ride out
	// the recovery window).
	for key, val := range keys {
		got, _, err := c.Get(key)
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("get %s after failover: %v", key, err)
		}
	}
	// Writes work too.
	if _, err := c.PutIn("post", []byte("alive"), 2); err != nil {
		t.Fatalf("put after failover: %v", err)
	}
}

func TestLiveLeaderFailover(t *testing.T) {
	cl, c := startCluster(t)
	if _, err := c.PutIn("lk", []byte("v"), 2); err != nil {
		t.Fatal(err)
	}
	cl.Kill(0)
	failedOver := testutil.Eventually(10*time.Second, 20*time.Millisecond, func() bool {
		var lead proto.NodeID
		var serving bool
		cl.Runs[1].Inspect(func(n *core.Node) { lead = n.Config().Leader; serving = n.Serving() })
		return lead == 1 && serving
	})
	if !failedOver {
		t.Fatal("no new leader")
	}
	got, _, err := c.Get("lk")
	if err != nil || string(got) != "v" {
		t.Fatalf("get after leader failover: %q %v", got, err)
	}
	// Management ops route to the new leader after re-resolve.
	if _, err := c.CreateMemgest(proto.Rep(2, 3)); err != nil {
		t.Fatalf("create after leader failover: %v", err)
	}
}

// TestConcurrentClose: a Client is safe for concurrent use, Close
// included. When Close checked its channel and then closed it, two
// callers could both pass the check, and the second close panicked.
func TestConcurrentClose(t *testing.T) {
	cfg := &proto.Config{Epoch: 1, Leader: 0, Coords: []proto.NodeID{0}}
	fabric := fakeNodes(t, 1, func(_ proto.NodeID, m proto.Message) proto.Message {
		if r, ok := m.(*proto.Resolve); ok {
			return &proto.ResolveReply{Req: r.Req, Config: cfg}
		}
		return nil
	})
	for i := 0; i < 100; i++ {
		c, err := Dial(fabric, []string{core.NodeAddr(0)}, Options{Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c.Close()
			}()
		}
		close(start)
		wg.Wait()
	}
}

func TestLiveDialFailsWithoutNodes(t *testing.T) {
	cl, err := core.StartCluster(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	if _, err := Dial(cl.Fabric, []string{"node/99"}, Options{Timeout: 100 * time.Millisecond}); err == nil {
		t.Fatal("dial to nonexistent bootstrap succeeded")
	}
}
