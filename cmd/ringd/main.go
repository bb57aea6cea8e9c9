// Command ringd runs the Ring server side over TCP: one node per
// process in the basic mode, with two extensions for real-hardware
// deployments.
//
// Every node of a deployment is started with the same -nodes list (the
// TCP addresses of all nodes, in node-ID order), the same role counts,
// and the same -memgests list, plus its own -id:
//
//	ringd -id 0 -nodes 10.0.0.1:7000,10.0.0.2:7000,10.0.0.3:7000,10.0.0.4:7000,10.0.0.5:7000 \
//	      -shards 3 -redundant 2 -memgests rep1,rep3,srs3.2
//
// An address (-nodes, -http) is an IPv4 literal, a bracketed IPv6
// literal, localhost, or an empty host (":7000", every IPv4 address),
// then a port: ringd resolves no names, so that it links neither net
// nor cgo and is one static binary. Any other host fails at start.
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
// state under DIR/group-<g> in a write-ahead log that is the store;
// -fsync picks the group-commit policy (always / interval / never) and
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
	"os"
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
	nodes := flag.String("nodes", "", "comma-separated TCP addresses (IP:port, [IPv6]:port, localhost:port) of all nodes, in ID order")
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
		fatalf("ringd: -nodes must list at least shards+redundant (%d) addresses", *shards+*redundant)
	}
	if int(*id) >= len(addrs) {
		fatalf("ringd: -id %d out of range for %d nodes", *id, len(addrs))
	}
	if *groups < 1 {
		*groups = 1
	}
	schemes, err := parseMemgests(*memgests, *shards)
	if err != nil {
		fatalf("%v", err)
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
		fatalf("%v", err)
	}

	var durOpts replog.DurableOptions
	if *dataDir != "" {
		policy, err := replog.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			fatalf("ringd: %v", err)
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
			ga, err := transport.OffsetPort(a, g)
			if err != nil {
				fatalf("ringd: node %d: %v", i, err)
			}
			fabric.Map(core.NodeAddr(proto.NodeID(i)), ga)
		}
		node, err := bootNode(proto.NodeID(*id), cfg, spec.Opts, *dataDir, g, durOpts)
		if err != nil {
			fatalf("ringd: group %d: %v", g, err)
		}
		r, err := core.StartRunner(node, fabric, 0)
		if err != nil {
			fatalf("ringd: group %d: %v", g, err)
		}
		defer r.Stop()
		runners[g] = r
		core.RegisterGroupQueueGauge(g, []*core.Runner{r})
	}
	logf("ringd: node %d listening on %s (%d groups, %d shards, %d redundant, %d spares, %d memgests)",
		*id, addrs[*id], *groups, *shards, *redundant, spec.Spares, len(schemes))
	if *httpAddr != "" {
		// The monitor serves group 0's node plus the process registry,
		// which carries the runner and queue-depth gauges of all groups.
		mon, err := status.Serve(runners[0], *httpAddr)
		if err != nil {
			fatalf("ringd: %v", err)
		}
		defer mon.Close()
		logf("ringd: monitoring on http://%s/status", mon.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Stop closes each group's durable store cleanly (flush + fsync),
	// so a SIGTERM'd node restarts with zero delta to resync.
	for _, r := range runners {
		r.Stop()
	}
	logf("ringd: node %d stopped", *id)
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
		logf("ringd: node %d group %d recovering from %s", id, group, dir)
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
		fatalf("ringd: cannot find own binary: %v", err)
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

	// A child reads nothing: its stdin is /dev/null. It writes to the
	// launcher's stdout and stderr and inherits its environment.
	devNull, err := os.Open(os.DevNull)
	if err != nil {
		fatalf("ringd: %v", err)
	}
	defer devNull.Close()
	attr := &os.ProcAttr{Files: []*os.File{devNull, os.Stdout, os.Stderr}}
	kids := make([]child, 0, n)
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
		p, err := os.StartProcess(self, append([]string{self}, args...), attr)
		if err != nil {
			logf("ringd: launch node %d: %v", i, err)
			stopAll(kids)
			return 1
		}
		k := child{p, make(chan struct{})}
		kids = append(kids, k)
		go func(i int) {
			_, _ = k.p.Wait()
			close(k.done)
			exited <- i
		}(i)
	}
	logf("ringd: launched %d nodes on %s (groups=%d); Ctrl-C to stop", n, nodeList, groups)
	fmt.Printf("RING_NODES=%s\n", nodeList)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	code := 0
	select {
	case <-sig:
	case i := <-exited:
		logf("ringd: node %d exited; stopping cluster", i)
		code = 1
	}
	stopAll(kids)
	return code
}

// child is one node the launcher started; done is closed once it has
// exited and been waited for.
type child struct {
	p    *os.Process
	done chan struct{}
}

// stopAll sends every child SIGTERM, gives them three seconds together
// to exit, and kills and reaps whichever has not.
func stopAll(kids []child) {
	for _, k := range kids {
		_ = k.p.Signal(syscall.SIGTERM)
	}
	deadline := time.NewTimer(3 * time.Second)
	defer deadline.Stop()
	expired := false
	for _, k := range kids {
		if !expired {
			select {
			case <-k.done:
				continue
			case <-deadline.C:
				expired = true
			}
		}
		_ = k.p.Kill()
		<-k.done
	}
}

// logf writes one line to standard error behind the local date and
// time, as the log package's default logger does.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s %s\n", time.Now().Format("2006/01/02 15:04:05"), fmt.Sprintf(format, args...))
}

// fatalf logs like logf and exits with status 1.
func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
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
