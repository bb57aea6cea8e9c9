package client

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/testutil"
	"ring/internal/transport"
)

// tcpSpec is a 5-node cluster with a spare: Rep(3,3) is memgest 1,
// SRS(3,2,3) memgest 2.
func tcpSpec() core.ClusterSpec {
	return core.ClusterSpec{
		Shards: 3, Redundant: 2, Spares: 1,
		Memgests: []proto.Scheme{
			proto.Rep(3, 3),
			proto.SRS(3, 2, 3),
		},
		Opts: core.Options{
			BlockSize: 64 << 10,
			FailAfter: 150 * time.Millisecond,
		},
	}
}

// tcpCluster boots spec's nodes over real TCP sockets on loopback — the
// ringd deployment path — each on a port the kernel picks, and returns
// their runners (stopped at cleanup unless deleted from the map first)
// and each node's address by name.
func tcpCluster(t *testing.T, spec core.ClusterSpec) (map[proto.NodeID]*core.Runner, map[string]string) {
	t.Helper()
	cfg, err := core.BootConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	nodes := cfg.AllNodes()

	// Register every node on its own fabric first (port 0), then remap
	// all logical names to the bound addresses on every fabric.
	fabrics := make(map[proto.NodeID]*transport.TCPFabric)
	endpoints := make(map[proto.NodeID]transport.Endpoint)
	for _, id := range nodes {
		f := transport.NewTCPFabric()
		f.Map(core.NodeAddr(id), "127.0.0.1:0")
		ep, err := f.Register(core.NodeAddr(id))
		if err != nil {
			t.Fatal(err)
		}
		fabrics[id] = f
		endpoints[id] = ep
	}
	addrs := make(map[string]string)
	for id, ep := range endpoints {
		addrs[core.NodeAddr(id)] = transport.BoundAddr(ep)
	}
	for _, f := range fabrics {
		mapAll(f, addrs)
	}
	// The endpoints were registered before the remap; that is fine —
	// they were bound by concrete address already. Wrap them in
	// runners via a fabric that returns the existing endpoint.
	runners := make(map[proto.NodeID]*core.Runner)
	t.Cleanup(func() {
		for _, r := range runners {
			r.Stop()
		}
	})
	for _, id := range nodes {
		n := core.New(id, cfg.Clone(), spec.Opts)
		r, err := core.StartRunner(n, preRegistered{endpoints[id]}, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		runners[id] = r
	}
	return runners, addrs
}

// mapAll maps every name of addrs on f to its address.
func mapAll(f *transport.TCPFabric, addrs map[string]string) *transport.TCPFabric {
	for name, addr := range addrs {
		f.Map(name, addr)
	}
	return f
}

// TestTCPClusterEndToEnd exercises the client API against a 5-node
// cluster over TCP, including a node crash.
func TestTCPClusterEndToEnd(t *testing.T) {
	runners, addrs := tcpCluster(t, tcpSpec())
	c, err := Dial(mapAll(transport.NewTCPFabric(), addrs), []string{core.NodeAddr(0)}, Options{Timeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	val := bytes.Repeat([]byte("tcp"), 400)
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("tcp-%d", i)
		if _, err := c.PutIn(key, val, proto.MemgestID(i%2+1)); err != nil {
			t.Fatalf("put over TCP: %v", err)
		}
	}
	for i := 0; i < 12; i++ {
		got, _, err := c.Get(fmt.Sprintf("tcp-%d", i))
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("get over TCP: %v", err)
		}
	}
	if _, err := c.Move("tcp-0", 2); err != nil {
		t.Fatalf("move over TCP: %v", err)
	}

	// Crash a coordinator; the spare takes over and data survives.
	runners[2].Stop()
	delete(runners, 2)
	reconfigured := testutil.Eventually(15*time.Second, 30*time.Millisecond, func() bool {
		var epoch proto.Epoch
		runners[0].Inspect(func(n *core.Node) { epoch = n.Config().Epoch })
		return epoch >= 2
	})
	if !reconfigured {
		t.Fatal("no reconfiguration over TCP")
	}
	for i := 0; i < 12; i++ {
		got, _, err := c.Get(fmt.Sprintf("tcp-%d", i))
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("get after TCP failover: %v", err)
		}
	}
}

// clientProcessEnv marks the test binary re-executed as a client
// process; its value lists the cluster's nodes as name=address pairs.
const clientProcessEnv = "RING_TEST_CLIENT_PROCESS"

// TestTwoProcessesAreTwoClients: two client processes against one TCP
// cluster register under two names, and each gets the replies to its
// own requests. Nodes route a reply by the name its request came from,
// so two processes under one name would have their replies crossed.
func TestTwoProcessesAreTwoClients(t *testing.T) {
	if nodes := os.Getenv(clientProcessEnv); nodes != "" {
		clientProcess(t, nodes)
		return
	}
	_, addrs := tcpCluster(t, tcpSpec())
	var nodes []string
	for name, addr := range addrs {
		nodes = append(nodes, name+"="+addr)
	}
	type process struct {
		cmd   *exec.Cmd
		start io.WriteCloser
		out   *bufio.Reader
		name  string
	}
	procs := make([]*process, 2)
	for i := range procs {
		cmd := exec.Command(os.Args[0], "-test.run=^TestTwoProcessesAreTwoClients$")
		cmd.Env = append(os.Environ(), clientProcessEnv+"="+strings.Join(nodes, ","))
		cmd.Stderr = os.Stderr
		start, err := cmd.StdinPipe()
		if err != nil {
			t.Fatal(err)
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		p := &process{cmd: cmd, start: start, out: bufio.NewReader(out)}
		procs[i] = p
		// Each process prints its name once it has dialled, then waits.
		line, _ := p.out.ReadString('\n')
		name, ok := strings.CutPrefix(strings.TrimSpace(line), "client name: ")
		if !ok {
			rest, _ := io.ReadAll(p.out)
			t.Fatalf("client process %d did not dial:\n%s%s", i, line, rest)
		}
		p.name = name
	}
	if procs[0].name == procs[1].name {
		t.Errorf("two client processes registered as one name, %s", procs[0].name)
	}
	// Both are connected: let them run at once.
	for _, p := range procs {
		p.start.Close()
	}
	for i, p := range procs {
		out, _ := io.ReadAll(p.out)
		if err := p.cmd.Wait(); err != nil {
			t.Errorf("client process %d (%s): %v\n%s", i, p.name, err, out)
		}
	}
}

// clientProcess is one client of TestTwoProcessesAreTwoClients: it dials
// the nodes listed, prints the name it registered, waits for its
// standard input to close, and then puts and gets back 40 keys of its
// own.
func clientProcess(t *testing.T, nodes string) {
	addrs := make(map[string]string)
	var bootstrap []string
	for _, node := range strings.Split(nodes, ",") {
		name, addr, _ := strings.Cut(node, "=")
		addrs[name] = addr
		bootstrap = append(bootstrap, name)
	}
	fabric := &namingFabric{Fabric: mapAll(transport.NewTCPFabric(), addrs)}
	c, err := Dial(fabric, bootstrap, Options{Timeout: 200 * time.Millisecond, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Printf("client name: %s\n", fabric.names[0])
	_, _ = io.Copy(io.Discard, os.Stdin)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("proc%d-%d", os.Getpid(), i)
		if _, err := c.PutIn(key, []byte(key), 1); err != nil {
			t.Errorf("put %s: %v", key, err)
			continue
		}
		if got, _, err := c.Get(key); err != nil || string(got) != key {
			t.Errorf("get %s: %q %v", key, got, err)
		}
	}
}

// namingFabric records the name of every endpoint registered through it.
type namingFabric struct {
	transport.Fabric
	names []string
}

func (f *namingFabric) Register(addr string) (transport.Endpoint, error) {
	f.names = append(f.names, addr)
	return f.Fabric.Register(addr)
}

// preRegistered adapts an already-registered endpoint to the Fabric
// interface StartRunner expects.
type preRegistered struct{ ep transport.Endpoint }

func (p preRegistered) Register(string) (transport.Endpoint, error) { return p.ep, nil }
