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

// PoisonPayloads makes every runner overwrite a consumed packet with
// 0xDB before recycling it. It is a test switch, set (in TestMain,
// before any runner starts) by every package whose tests drive a
// Cluster: a handler that kept a view into a packet past its return
// then reads 0xDB the first time it looks, instead of whatever a later
// packet happens to put there under production timing.
var PoisonPayloads bool

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
// like the paper's single-threaded servers.
type Runner struct {
	node  *Node
	ep    transport.Endpoint
	ticks time.Duration

	mu      sync.Mutex // guards node during Inspect
	start   time.Time
	stopped chan struct{}
	done    chan struct{}
	epOnce  sync.Once // ep.Close exactly once (halt and Stop both close)

	// depth reports the current inbox backlog; set once at start, read
	// by the queue-depth gauges at scrape time.
	depth func() int

	// Event-loop scratch (single-goroutine): the per-destination
	// coalescing group and the pooled payload buffers (Out.Scratch) of
	// the group's messages. Reused across events so the steady-state send
	// path does not allocate beyond the owned payload buffers handed to
	// the fabric.
	group    []proto.Message
	payloads [][]byte
}

// StartRunner registers the node's endpoint on the fabric and starts
// its event loop. tickEvery <= 0 selects 10ms.
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
		node:    n,
		ep:      ep,
		ticks:   tickEvery,
		start:   time.Now(),
		stopped: make(chan struct{}),
		done:    make(chan struct{}),
	}
	if cr, ok := ep.(transport.ChanReceiver); ok {
		// Fabric with a channel inbox (memnet, tcpnet): the event loop
		// selects on it directly — no forwarder goroutine, one less
		// handoff per packet.
		inbox := cr.RecvChan()
		r.depth = func() int { return len(inbox) }
		RunnerGoroutines.Add(1)
		go r.loop(inbox, cr.Closed())
	} else {
		// An endpoint that only has Recv (a wrapper around either).
		packets := make(chan transport.Packet, 1024)
		r.depth = func() int { return len(packets) }
		go func() {
			for {
				p, err := ep.Recv()
				if err != nil {
					close(packets)
					return
				}
				select {
				case packets <- p:
				case <-r.stopped:
					return
				}
			}
		}()
		RunnerGoroutines.Add(1)
		go r.loop(packets, nil)
	}
	return r, nil
}

// InboxDepth returns the runner's current receive backlog — the
// instantaneous form of the InboxHighWater mark, summed per group by
// the queue-depth gauges.
func (r *Runner) InboxDepth() int {
	if r.depth == nil {
		return 0
	}
	return r.depth()
}

// loop is the node's event loop. packets either closes on shutdown
// (forwarder path) or stays open with epClosed signalling shutdown
// (ChanReceiver path); a nil epClosed never fires.
//
//ring:wallclock real-time ticker driving the node's virtual clock
func (r *Runner) loop(packets <-chan transport.Packet, epClosed <-chan struct{}) {
	defer close(r.done)
	defer RunnerGoroutines.Add(-1)
	ticker := time.NewTicker(r.ticks)
	defer ticker.Stop()
	for {
		select {
		case <-r.stopped:
			return
		case <-epClosed:
			return
		case p, ok := <-packets:
			if !ok {
				return
			}
			if !r.drain(p, packets) {
				return
			}
		case <-ticker.C:
			if !r.tick() {
				return
			}
		}
	}
}

// maxDrain bounds how many queued packets one drain pass consumes, so
// a flooded node still flushes sends and honours Stop promptly.
const maxDrain = 64

// drain runs p plus any backlog already queued on packets through the
// state machine under a single lock, then flushes every resulting send
// in one coalesced pass. Processing the backlog per wakeup instead of
// per packet amortises lock and scheduler traffic, and lets outputs of
// different events destined for the same peer share a packet — e.g. a
// coordinator that finds several acks queued emits the commit fan-out
// and the client replies they unlock as single per-peer sends. It
// returns false once the packet channel has closed.
//
// Flush runs under r.mu by design: it is the node's group commit, and
// the batch's outputs exist outside the node only once it has returned
// them (crash-stop-before-outputs); r.mu has no other contenders
// besides Inspect.
//
//ring:hotpath
//ring:wallclock converts wall time to the node's event clock
//ring:lockok deliberate hold-across-fsync, see above
func (r *Runner) drain(p transport.Packet, packets <-chan transport.Packet) bool {
	open := true
	r.mu.Lock()
	now := time.Since(r.start)
	// The channel backlog plus the packet in hand is the inbox depth
	// this wakeup observed.
	r.node.Metrics.InboxHighWater.Observe(int64(len(packets)) + 1)
	for drained := 0; ; drained++ {
		// A packet carries one message or a TBatch of several; each is
		// run through the state machine in arrival order.
		_ = proto.ForEachPacked(p.Payload, func(enc []byte) error {
			msg, err := proto.Decode(enc)
			if err != nil {
				return nil // drop malformed messages
			}
			r.node.HandleMessage(now, p.From, msg)
			return nil
		})
		// Every handler of every message in the packet has returned,
		// and a handler copies what it keeps (the ownership rule of
		// package transport): the decoded views are dead, the payload
		// goes back to the pool.
		if PoisonPayloads {
			for i := range p.Payload {
				p.Payload[i] = 0xDB
			}
		}
		transport.ReleaseBuf(p.Payload)
		if drained >= maxDrain {
			break
		}
		var more bool
		select {
		case p, more = <-packets:
			if !more {
				open = false
			}
		default:
		}
		if !more {
			break
		}
	}
	return r.endBatch() && open
}

// tick runs the node's timer step as a batch of its own.
//
//ring:hotpath
//ring:wallclock converts wall time to the node's event clock
//ring:lockok deliberate hold-across-fsync, see drain
func (r *Runner) tick() bool {
	r.mu.Lock()
	r.node.HandleTick(time.Since(r.start))
	return r.endBatch()
}

// endBatch ends the batch the caller ran under r.mu: the node's Flush,
// still under the lock, then the sends outside it. On a lost disk the
// node hands no outputs over — nothing acknowledged this batch can be
// un-durable — and the runner crash-stops, reporting false.
//
//ring:hotpath
func (r *Runner) endBatch() bool {
	outs, err := r.node.Flush()
	r.mu.Unlock()
	if err != nil {
		r.halt()
		return false
	}
	r.flush(outs)
	return true
}

// flush coalesces one event's outputs by destination and transmits
// each group as a single packet: m parity updates or r replica
// appends fanning out to the same peer cost one Send, the equivalent
// of posting back-to-back verbs with a single doorbell. Message order
// per destination is preserved. Each packet is encoded into a pooled
// buffer sized for it up front, so encoding never regrows one, and the
// pooled payload buffers of its messages (Out.Scratch) go back to the
// pool the moment the packet holds their bytes. Entries are cleared as
// they are sent so the node's buffer and the scratch slices do not pin
// messages.
//
//ring:hotpath
func (r *Runner) flush(outs []Out) {
	for i := range outs {
		if outs[i].To == "" {
			continue // already coalesced into an earlier group
		}
		to := outs[i].To
		size := 0
		r.group, r.payloads = r.group[:0], r.payloads[:0]
		for j := i; j < len(outs); j++ {
			if outs[j].To != to {
				continue
			}
			r.group = append(r.group, outs[j].Msg)
			size += proto.SizeHint(outs[j].Msg)
			if outs[j].Scratch != nil {
				r.payloads = append(r.payloads, outs[j].Scratch)
			}
			outs[j] = Out{}
		}
		buf := proto.AppendBatch(transport.AcquireBufSize(size), r.group...)
		for _, b := range r.payloads {
			transport.ReleaseBuf(b)
		}
		r.node.Metrics.MsgsOut.Add(uint64(len(r.group)))
		r.node.Metrics.PacketsOut.Inc()
		// Best-effort, like a datagram fabric: dead peers are the
		// failure detector's problem, not the sender's.
		_ = r.ep.Send(to, buf)
		clear(r.group)
		clear(r.payloads)
	}
}

// Inspect runs f with the node quiesced; for tests and stats scraping.
func (r *Runner) Inspect(f func(*Node)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f(r.node)
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
	select {
	case <-r.stopped:
	default:
		close(r.stopped)
	}
	r.epOnce.Do(func() { r.ep.Close() })
	<-r.done
	if closeDurable {
		r.mu.Lock()
		err := r.node.CloseDurable()
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
