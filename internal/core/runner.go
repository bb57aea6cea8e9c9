package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ring/internal/metrics"
	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/transport"
	"ring/internal/wal"
)

// RunnerGoroutines counts live runner event-loop goroutines
// process-wide, one per hosted node. With memgest-group sharding a
// process hosts one runner per (node, group) pair, so this gauge is
// how an operator sees the parallelism actually running — exposed as
// core.runner_goroutines via /debug/ringvars and `ringctl stats`.
var RunnerGoroutines metrics.Gauge

func init() {
	metrics.Default.Register("core.runner_goroutines", &RunnerGoroutines)
}

// Runner hosts one Node on a fabric: a single goroutine serializes
// incoming packets and timer ticks through the state machine, exactly
// like the paper's single-threaded servers. Outside the event loop the
// node is reached through Inspect.
type Runner struct {
	Host
	ep    transport.Endpoint
	ticks time.Duration

	mu     sync.Mutex // guards the node during Inspect
	start  time.Time
	done   chan struct{}
	epOnce sync.Once // ep.Close exactly once (halt and Stop both close)

	// inbox is the endpoint's receive channel on memnet, nil on tcpnet,
	// whose backlog is in the kernel; the queue-depth gauges read its
	// length at scrape time.
	inbox <-chan transport.Packet

	// The loop's batch: deliver (r.deliverOne) is what it polls with,
	// and the first packet of a batch takes r.mu and the batch's now.
	deliver func(from string, payload []byte)
	locked  bool
	now     time.Duration
}

// StartRunner registers the node's endpoint on the fabric and starts
// its event loop, which polls the endpoint itself. tickEvery <= 0
// selects 10ms.
//
//ring:wallclock the Runner is the deliberate real-time boundary hosting the event-driven node
func StartRunner(n *Node, fabric transport.Fabric, tickEvery time.Duration) (*Runner, error) {
	if tickEvery <= 0 {
		tickEvery = 10 * time.Millisecond
	}
	ep, err := fabric.Register(NodeAddr(n.ID()))
	if err != nil {
		return nil, err
	}
	r := &Runner{
		Host:  Host{Node: n},
		ep:    ep,
		ticks: tickEvery,
		start: time.Now(),
		done:  make(chan struct{}),
	}
	if cr, ok := ep.(transport.ChanReceiver); ok {
		r.inbox = cr.RecvChan()
	}
	r.deliver = r.deliverOne
	RunnerGoroutines.Add(1)
	go r.loop()
	return r, nil
}

// InboxDepth returns the runner's current receive backlog on memnet —
// the instantaneous form of the InboxHighWater mark, summed per group
// by the queue-depth gauges — and 0 on tcpnet.
func (r *Runner) InboxDepth() int { return len(r.inbox) }

// loop is the node's event loop: a batch of what Poll delivers, then a
// tick whenever one is due. Closing the endpoint, which Stop, Kill and
// halt do, ends it.
//
//ring:wallclock real-time ticks driving the node's virtual clock
func (r *Runner) loop() {
	defer close(r.done)
	defer RunnerGoroutines.Add(-1)
	next := time.Now().Add(r.ticks)
	for {
		n, err := r.ep.Poll(next, 1+MaxDrain, r.deliver)
		if n > 0 && !r.drain(n) || err != nil {
			return
		}
		if now := time.Now(); !now.Before(next) {
			if !r.tick() {
				return
			}
			if next = next.Add(r.ticks); !next.After(now) {
				next = now.Add(r.ticks)
			}
		}
	}
}

// deliverOne runs one packet of the batch Poll is delivering; the first
// takes r.mu and fixes the batch's clock.
//
//ring:wallclock converts wall time to the node's event clock
func (r *Runner) deliverOne(from string, payload []byte) {
	if !r.locked {
		r.mu.Lock()
		r.locked = true
		r.now = time.Since(r.start)
	}
	r.Deliver(r.now, from, payload)
}

// drain ends the batch of n packets that Poll ran through the node
// under one lock, and sends the batch's outputs in one coalesced pass:
// a wakeup amortises lock and scheduler traffic, and outputs of
// different events to one peer share a packet (a coordinator that finds
// several acks queued sends the commit fan-out and the replies they
// unlock as single per-peer sends). It returns false once the node has
// crash-stopped.
//
// Flush runs under r.mu by design: it is the node's group commit, and
// the batch's outputs exist outside the node only once it has returned
// them (crash-stop-before-outputs); r.mu has no other contenders
// besides Inspect.
//
//ring:lockok deliberate hold-across-fsync, see above
func (r *Runner) drain(n int) bool {
	// The packets taken plus any still queued is the backlog this
	// wakeup observed.
	r.Node.Metrics.InboxHighWater.Observe(int64(n + len(r.inbox)))
	r.locked = false
	return r.endBatch()
}

// tick runs the node's timer step as a batch of its own.
//
//ring:wallclock converts wall time to the node's event clock
//ring:lockok deliberate hold-across-fsync, see drain
func (r *Runner) tick() bool {
	r.mu.Lock()
	r.Node.HandleTick(time.Since(r.start))
	return r.endBatch()
}

// endBatch ends the batch the caller ran under r.mu: the node's Flush,
// still under the lock, then the sends outside it. On a lost disk the
// node hands no outputs over — nothing acknowledged this batch can be
// un-durable — and the runner crash-stops, reporting false.
func (r *Runner) endBatch() bool {
	outs, err := r.Node.Flush()
	r.mu.Unlock()
	if err != nil {
		r.halt()
		return false
	}
	r.Pack(outs, r.ep.Send)
	return true
}

// Inspect runs f with the node quiesced; for tests and stats scraping.
func (r *Runner) Inspect(f func(*Node)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f(r.Node)
}

// halt is the crash-stop path taken by the event loop itself when the
// node can no longer promise durability: the endpoint closes so the
// node vanishes from the fabric, exactly as if it had been killed.
func (r *Runner) halt() {
	r.epOnce.Do(func() { r.ep.Close() })
}

// Stop terminates the runner and unregisters the endpoint, then closes
// the durable store cleanly (flush + fsync) if one is attached. A
// stopped runner's node simply vanishes from the fabric — the exact
// failure model of the paper's "manually killing processes"
// experiments.
func (r *Runner) Stop() {
	r.stop(true)
}

// Kill terminates the runner WITHOUT closing the durable store — the
// in-process equivalent of kill -9: whatever the last fsync made
// durable stays on disk, everything after it is torn away.
func (r *Runner) Kill() {
	r.stop(false)
}

// stop shuts the event loop down. CloseDurable holds r.mu so a
// concurrent Inspect cannot observe a half-closed store; the event loop
// is already drained here.
//
//ring:lockok CloseDurable intentionally closes under r.mu, see above
func (r *Runner) stop(closeDurable bool) {
	r.epOnce.Do(func() { r.ep.Close() })
	<-r.done
	if closeDurable {
		r.mu.Lock()
		err := r.Node.CloseDurable()
		r.mu.Unlock()
		_ = err // a node stopping anyway has nowhere to report it
	}
}

// Cluster is a convenience harness: n nodes on one fabric with a
// shared initial configuration.
type Cluster struct {
	Fabric *transport.MemFabric
	Cfg    *proto.Config
	Runs   map[proto.NodeID]*Runner
	opts   Options
	tick   time.Duration

	dataDir string
	durOpts replog.DurableOptions
}

// ClusterSpec describes a cluster to boot.
type ClusterSpec struct {
	// Shards (s), Redundant (d) and Spares (n) node counts; node IDs
	// are assigned 0..s+d+n-1 in role order.
	Shards, Redundant, Spares int
	// Memgests created at boot (IDs assigned 1..len in order; the
	// first becomes the default).
	Memgests []proto.Scheme
	Opts     Options
	// TickEvery is the runner tick period.
	TickEvery time.Duration
	// DataDir, when non-empty, gives every node a durable store rooted
	// at DataDir/node-<id> (directories created on demand). Killed nodes
	// can then come back through Cluster.Restart with their state.
	DataDir string
	// DurableOpts configures the durable stores (fsync policy etc.).
	DurableOpts replog.DurableOptions
}

// BootConfig builds the initial configuration for a spec.
func BootConfig(spec ClusterSpec) (*proto.Config, error) {
	if spec.Shards < 1 {
		return nil, fmt.Errorf("core: cluster needs at least one shard")
	}
	cfg := &proto.Config{Epoch: 1, Leader: 0}
	id := proto.NodeID(0)
	for i := 0; i < spec.Shards; i++ {
		cfg.Coords = append(cfg.Coords, id)
		id++
	}
	for i := 0; i < spec.Redundant; i++ {
		cfg.Redundant = append(cfg.Redundant, id)
		id++
	}
	for i := 0; i < spec.Spares; i++ {
		cfg.Spares = append(cfg.Spares, id)
		id++
	}
	for i, sc := range spec.Memgests {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		if sc.S != spec.Shards {
			return nil, fmt.Errorf("core: memgest %v does not match cluster shards %d", sc, spec.Shards)
		}
		cfg.Memgests = append(cfg.Memgests, proto.MemgestInfo{
			ID:        proto.MemgestID(i + 1),
			Scheme:    sc,
			Redundant: append([]proto.NodeID(nil), cfg.Redundant...),
		})
	}
	if len(cfg.Memgests) > 0 {
		cfg.Default = cfg.Memgests[0].ID
	}
	return cfg, nil
}

// StartCluster boots a full in-process cluster on a fresh memnet
// fabric.
func StartCluster(spec ClusterSpec) (*Cluster, error) {
	cfg, err := BootConfig(spec)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		Fabric:  transport.NewMemFabric(0),
		Cfg:     cfg,
		Runs:    make(map[proto.NodeID]*Runner),
		opts:    spec.Opts,
		tick:    spec.TickEvery,
		dataDir: spec.DataDir,
		durOpts: spec.DurableOpts,
	}
	for _, id := range cfg.AllNodes() {
		n := New(id, cfg.Clone(), spec.Opts)
		if c.dataDir != "" {
			d, err := c.openDurable(id)
			if err != nil {
				c.Stop()
				return nil, err
			}
			n.SetDurable(d)
		}
		r, err := StartRunner(n, c.Fabric, spec.TickEvery)
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.Runs[id] = r
	}
	return c, nil
}

// NodeDataDir returns the data directory of one node of a durable
// cluster.
func (c *Cluster) NodeDataDir(id proto.NodeID) string {
	return filepath.Join(c.dataDir, fmt.Sprintf("node-%d", id))
}

func (c *Cluster) openDurable(id proto.NodeID) (*replog.Durable, error) {
	dir := c.NodeDataDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return replog.OpenDurable(wal.DirFS(dir), c.durOpts)
}

// Restart brings a killed node of a durable cluster back over its data
// directory: it replays the WAL, rebuilds its state up to the durable
// commit index, and rejoins quarantined — the leader re-admits it into
// its old roles and it delta-syncs the rest from the group.
func (c *Cluster) Restart(id proto.NodeID) error {
	if c.dataDir == "" {
		return fmt.Errorf("core: cluster has no data dir")
	}
	if _, ok := c.Runs[id]; ok {
		return fmt.Errorf("core: node %d still running", id)
	}
	d, err := c.openDurable(id)
	if err != nil {
		return err
	}
	n := NewRecovered(id, c.Cfg.Clone(), c.opts, d)
	r, err := StartRunner(n, c.Fabric, c.tick)
	if err != nil {
		return err
	}
	c.Runs[id] = r
	return nil
}

// Kill simulates a crash: the node's runner stops and its endpoint
// disappears from the fabric. The durable store (if any) is NOT closed
// cleanly — its data directory keeps exactly what the last fsync made
// durable, like kill -9.
func (c *Cluster) Kill(id proto.NodeID) {
	if r, ok := c.Runs[id]; ok {
		r.Kill()
		delete(c.Runs, id)
	}
}

// Stop shuts the whole cluster down.
func (c *Cluster) Stop() {
	for id, r := range c.Runs {
		r.Stop()
		delete(c.Runs, id)
	}
}
