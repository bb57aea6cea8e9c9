// Command ringd runs the Ring server side over TCP: one node per
// process in the basic mode, with two extensions for real-hardware
// deployments.
//
// Every node of a deployment is started with the same -nodes list (the
// TCP addresses of all nodes, in node-ID order), the same role counts,
// and the same -memgests list, plus its own -id:
//
//	ringd -id 0 -nodes host0:7000,host1:7000,host2:7000,host3:7000,host4:7000 \
//	      -shards 3 -redundant 2 -memgests rep1,rep3,srs3.2
//
// Node IDs 0..shards-1 are coordinators, the next `redundant` are
// redundancy nodes, and the rest are spares. Memgest descriptors are
// comma-separated: repR (replication factor R) or srsK.M (SRS(K,M,s)).
//
// Memgest groups (-groups G): a Ring node is single-threaded, so one
// deployment uses at most one core per machine. With -groups G the
// process hosts G fully independent group instances of its node — one
// runner goroutine and one TCP fabric each, group g listening on the
// node's port plus g — saturating up to G cores. Clients partition
// keys between groups with core.GroupOf; cmd/ringload does this
// automatically.
//
// Durable storage (-data-dir DIR): by default nodes are volatile, the
// paper's model. With -data-dir each hosted group persists committed
// state under DIR/group-<g> through a WAL + Bitcask engine; -fsync
// picks the group-commit policy (always / interval / never) and
// -fsync-interval its period. A node restarted over an existing
// directory recovers from it and rejoins the cluster holding all
// entries up to its durable commit index, syncing only the delta. In
// launcher mode each child is started with -data-dir DIR/node-<i>.
//
// Procfile-style launcher (-launch N): instead of starting N processes
// by hand, one parent re-execs itself once per node on consecutive
// localhost ports, supervises the children, and tears the whole
// cluster down on Ctrl-C or when any child dies:
//
//	ringd -launch 5 -base-port 7400 -shards 3 -redundant 2 \
//	      -memgests rep3,srs3.2 -groups 2
//
// The launcher prints the -nodes list as RING_NODES=...; cmd/ringload
// drives the cluster from it.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/status"
	"ring/internal/transport"
	"ring/internal/wal"
)

func main() {
	id := flag.Uint("id", 0, "this node's ID (index into -nodes)")
	nodes := flag.String("nodes", "", "comma-separated TCP addresses of all nodes, in ID order")
	shards := flag.Int("shards", 3, "number of key shards (coordinator nodes)")
	redundant := flag.Int("redundant", 2, "number of redundancy nodes")
	memgests := flag.String("memgests", "rep1", "comma-separated schemes: repR or srsK.M")
	blockSize := flag.Int("block-size", 64<<10, "SRS logical block capacity in bytes (blocks are backed only where they are written)")
	heartbeat := flag.Duration("heartbeat", 50*time.Millisecond, "leader heartbeat period")
	failAfter := flag.Duration("fail-after", 250*time.Millisecond, "failure detection threshold")
	groups := flag.Int("groups", 1, "independent memgest groups hosted by this process (group g listens on the node port + g)")
	dataDir := flag.String("data-dir", "", "durable storage directory (empty = volatile, the paper's model); a restart over an existing directory recovers from it")
	fsyncMode := flag.String("fsync", "always", "fsync policy for the durable store: always, interval, or never")
	fsyncEvery := flag.Duration("fsync-interval", 5*time.Millisecond, "group-commit period under -fsync interval")
	httpAddr := flag.String("http", "", "optional HTTP monitoring address serving /status, /metrics, /debug/ringvars, /debug/trace and /debug/pprof/ (e.g. :8080)")
	launch := flag.Int("launch", 0, "launcher mode: spawn a whole N-node cluster on localhost and supervise it")
	basePort := flag.Int("base-port", 7400, "launcher mode: first TCP port (node i uses base-port + i*groups)")
	httpBase := flag.Int("http-base", 0, "launcher mode: serve node i's monitoring on this port + i (0 disables)")
	flag.Parse()

	if *launch > 0 {
		os.Exit(runLauncher(*launch, *basePort, *httpBase, *groups, *dataDir))
	}

	addrs := splitAddrs(*nodes)
	if *nodes == "" || len(addrs) < *shards+*redundant {
		log.Fatalf("ringd: -nodes must list at least shards+redundant (%d) addresses", *shards+*redundant)
	}
	if int(*id) >= len(addrs) {
		log.Fatalf("ringd: -id %d out of range for %d nodes", *id, len(addrs))
	}
	if *groups < 1 {
		*groups = 1
	}
	schemes, err := parseMemgests(*memgests, *shards)
	if err != nil {
		log.Fatal(err)
	}

	spec := core.ClusterSpec{
		Shards:    *shards,
		Redundant: *redundant,
		Spares:    len(addrs) - *shards - *redundant,
		Memgests:  schemes,
		Opts: core.Options{
			BlockSize:      *blockSize,
			HeartbeatEvery: *heartbeat,
			FailAfter:      *failAfter,
		},
	}
	cfg, err := core.BootConfig(spec)
	if err != nil {
		log.Fatal(err)
	}

	var durOpts replog.DurableOptions
	if *dataDir != "" {
		policy, err := replog.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			log.Fatalf("ringd: %v", err)
		}
		durOpts = replog.DurableOptions{Policy: policy, Interval: *fsyncEvery}
	}

	// One runner per hosted group, each group on its own fabric: group
	// g of node i lives at addrs[i] with the port shifted by g. Groups
	// never exchange messages, so the fabrics stay fully disjoint.
	runners := make([]*core.Runner, *groups)
	for g := 0; g < *groups; g++ {
		fabric := transport.NewTCPFabric()
		for i, a := range addrs {
			ga, err := offsetPort(a, g)
			if err != nil {
				log.Fatalf("ringd: node %d: %v", i, err)
			}
			fabric.Map(core.NodeAddr(proto.NodeID(i)), ga)
		}
		node, err := bootNode(proto.NodeID(*id), cfg, spec.Opts, *dataDir, g, durOpts)
		if err != nil {
			log.Fatalf("ringd: group %d: %v", g, err)
		}
		r, err := core.StartRunner(node, fabric, 0)
		if err != nil {
			log.Fatalf("ringd: group %d: %v", g, err)
		}
		defer r.Stop()
		runners[g] = r
		core.RegisterGroupQueueGauge(g, []*core.Runner{r})
	}
	log.Printf("ringd: node %d listening on %s (%d groups, %d shards, %d redundant, %d spares, %d memgests)",
		*id, addrs[*id], *groups, *shards, *redundant, spec.Spares, len(schemes))
	if *httpAddr != "" {
		// The monitor serves group 0's node plus the process registry,
		// which carries the runner and queue-depth gauges of all groups.
		mon, err := status.Serve(runners[0], *httpAddr)
		if err != nil {
			log.Fatalf("ringd: %v", err)
		}
		defer mon.Close()
		log.Printf("ringd: monitoring on http://%s/status", mon.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Stop closes each group's durable store cleanly (flush + fsync),
	// so a SIGTERM'd node restarts with zero delta to resync.
	for _, r := range runners {
		r.Stop()
	}
	log.Printf("ringd: node %d stopped", *id)
}

// bootNode constructs one group's state machine. Without -data-dir it
// is a plain volatile node. With -data-dir, group g persists under
// <data-dir>/group-<g>: a first boot (empty directory) starts a normal
// node with durability attached, while a restart over existing state
// recovers it and boots quarantined — the node rejoins the running
// cluster advertising its durable state and delta-syncs the rest.
func bootNode(id proto.NodeID, cfg *proto.Config, opts core.Options, dataDir string, group int, durOpts replog.DurableOptions) (*core.Node, error) {
	if dataDir == "" {
		return core.New(id, cfg.Clone(), opts), nil
	}
	dir := filepath.Join(dataDir, fmt.Sprintf("group-%d", group))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := replog.OpenDurable(wal.DirFS(dir), durOpts)
	if err != nil {
		return nil, fmt.Errorf("opening durable store in %s: %v", dir, err)
	}
	if len(d.Recovered()) > 0 {
		log.Printf("ringd: node %d group %d recovering from %s", id, group, dir)
		return core.NewRecovered(id, cfg.Clone(), opts, d), nil
	}
	n := core.New(id, cfg.Clone(), opts)
	n.SetDurable(d)
	return n, nil
}

// runLauncher spawns one child ringd per node on consecutive localhost
// ports, forwarding the shared cluster flags, and supervises them: the
// cluster dies as a unit on Ctrl-C/SIGTERM or when any child exits.
func runLauncher(n, basePort, httpBase, groups int, dataDir string) int {
	if groups < 1 {
		groups = 1
	}
	self, err := os.Executable()
	if err != nil {
		log.Fatalf("ringd: cannot find own binary: %v", err)
	}
	addrs := make([]string, n)
	for i := range addrs {
		// Each node owns `groups` consecutive ports (one per group
		// fabric), so nodes are spaced by the group count.
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", basePort+i*groups)
	}
	nodeList := strings.Join(addrs, ",")

	// Child flags = the shared cluster flags as given, minus the
	// launcher-only ones, plus the per-node -id/-nodes.
	shared := []string{"-nodes", nodeList, "-groups", strconv.Itoa(groups)}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "launch", "base-port", "http-base", "id", "nodes", "groups", "http", "data-dir":
			return
		}
		shared = append(shared, "-"+f.Name, f.Value.String())
	})

	procs := make([]*exec.Cmd, n)
	exited := make(chan int, n)
	for i := 0; i < n; i++ {
		args := append([]string{"-id", strconv.Itoa(i)}, shared...)
		if dataDir != "" {
			// Each child owns its node's subdirectory, like each real
			// machine owns its disk.
			args = append(args, "-data-dir", filepath.Join(dataDir, fmt.Sprintf("node-%d", i)))
		}
		if httpBase > 0 {
			args = append(args, "-http", fmt.Sprintf("127.0.0.1:%d", httpBase+i))
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Printf("ringd: launch node %d: %v", i, err)
			stopAll(procs)
			return 1
		}
		procs[i] = cmd
		go func(i int, cmd *exec.Cmd) {
			_ = cmd.Wait()
			exited <- i
		}(i, cmd)
	}
	log.Printf("ringd: launched %d nodes on %s (groups=%d); Ctrl-C to stop", n, nodeList, groups)
	fmt.Printf("RING_NODES=%s\n", nodeList)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	code := 0
	select {
	case <-sig:
	case i := <-exited:
		log.Printf("ringd: node %d exited; stopping cluster", i)
		code = 1
	}
	stopAll(procs)
	return code
}

// stopAll terminates every child and waits briefly for each.
func stopAll(procs []*exec.Cmd) {
	for _, cmd := range procs {
		if cmd != nil && cmd.Process != nil {
			_ = cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	deadline := time.After(3 * time.Second)
	for _, cmd := range procs {
		if cmd == nil || cmd.Process == nil {
			continue
		}
		done := make(chan struct{})
		go func(cmd *exec.Cmd) { _ = cmd.Wait(); close(done) }(cmd)
		select {
		case <-done:
		case <-deadline:
			_ = cmd.Process.Kill()
		}
	}
}

// splitAddrs parses a -nodes list, trimming whitespace.
func splitAddrs(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// offsetPort returns addr with its port shifted by delta — how group
// fabrics share one -nodes list.
func offsetPort(addr string, delta int) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("bad address %q: %v", addr, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return "", fmt.Errorf("bad port in %q: %v", addr, err)
	}
	return net.JoinHostPort(host, strconv.Itoa(p+delta)), nil
}

// parseMemgests parses "rep1,rep3,srs3.2" into scheme descriptors.
func parseMemgests(s string, shards int) ([]proto.Scheme, error) {
	var out []proto.Scheme
	for _, tok := range strings.Split(s, ",") {
		sc, err := proto.ParseScheme(tok, shards)
		if err != nil {
			return nil, fmt.Errorf("ringd: -memgests: %w", err)
		}
		out = append(out, sc)
	}
	return out, nil
}
