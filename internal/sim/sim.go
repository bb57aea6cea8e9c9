// Package sim is the discrete-event network-and-CPU simulator that
// stands in for the paper's InfiniBand testbed. It drives the exact
// same core.Node state machines that run in production, through the
// same core.Host the runner uses — packet bytes in, one batch and one
// Flush per CPU slot, one packet per peer out — but in virtual time,
// with a calibrated cost model:
//
//   - Links have a fixed one-way propagation delay plus a
//     size-proportional serialization term (NIC bandwidth). Outgoing
//     packets of one node share its NIC and are serialized.
//   - Each node has a single CPU (the paper's servers are
//     single-threaded). A batch costs a base overhead per message, by
//     its wire type, plus a term proportional to the bytes the node
//     XORed into parity, read from its own Stats counters, so the model
//     charges for the parity work the real implementation performed.
//     Copied, decoded and installed bytes cost no CPU (see
//     DefaultModel).
//
// Because the protocol structure (hops, fan-outs, byte counts) is
// real, the relative shapes of the paper's figures — REP1 < REPr <
// SRS put latency, crossovers with object size, throughput saturation
// of a single-threaded coordinator — emerge from execution rather
// than being hard-coded; only the per-unit constants are calibrated.
package sim

import (
	"container/heap"
	"sort"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/transport"
)

// CostModel holds the calibrated constants. The defaults approximate
// the paper's testbed: QDR InfiniBand RDMA (about 2 µs one-way for
// small messages) and a 2.4 GHz Xeon running single-threaded servers.
type CostModel struct {
	// NetDelay is the one-way propagation + switch + NIC-to-NIC delay.
	NetDelay time.Duration
	// NetBytesPerSec is the serialization bandwidth of one NIC.
	NetBytesPerSec float64
	// CPUFixed is the per-message handling overhead (dispatch, hash
	// lookups, verb posting).
	CPUFixed time.Duration
	// CPUFixedRepl is the cheaper handling overhead of the redundancy
	// plane (RepAppend/ParityUpdate/Purge apply paths have no client
	// dispatch, routing, or version allocation).
	CPUFixedRepl time.Duration
	// CPUPerByteXor charges for bytes of GF-multiply/XOR parity work.
	CPUPerByteXor time.Duration
	// Skew is added to every packet's size when its serialisation is
	// charged: it moves when each packet lands and changes nothing
	// else, so a chaos band read at several skews is several draws of
	// one protocol. Every calibrated model leaves it 0.
	Skew int
}

// DefaultModel returns constants calibrated so that the Figure 7
// reproduction lands in the paper's range (get ≈ 5 µs, REP1 put
// ≈ 5 µs at small sizes, SRS32 put ≈ 3x REP1 at 2 KiB).
//
// Copied, decoded and installed bytes cost no CPU: a Duration counts
// whole nanoseconds, so a rate below one per byte cannot be written
// here (time.Nanosecond / 4 is an integer division equal to zero), and
// every figure is calibrated without one. Byte volume reaches virtual
// time through NIC serialisation (NetBytesPerSec) and parity XOR alone.
func DefaultModel() CostModel {
	return CostModel{
		NetDelay:       1500 * time.Nanosecond,
		NetBytesPerSec: 3.2e9, // ~26 Gb/s effective of the 40 Gb/s link
		CPUFixed:       1400 * time.Nanosecond,
		CPUFixedRepl:   700 * time.Nanosecond,
		CPUPerByteXor:  2 * time.Nanosecond,
	}
}

// event kinds.
type evKind uint8

const (
	evDeliver evKind = iota + 1 // a packet arrives at a node or client
	evTick                      // periodic node timer
	evUser                      // scheduled callback (workload arrival)
	evProcess                   // a node CPU takes its next batch
)

type event struct {
	at   time.Duration
	seq  uint64 // tie-break for determinism
	kind evKind

	to   string
	from string
	pkt  []byte // evDeliver

	node proto.NodeID // evTick
	inc  uint64       // target incarnation (evTick, evProcess)
	fn   func(now time.Duration)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// nodeHost gives a core.Host its simulated CPU and NIC. Incoming
// packets enter a FIFO queue and are handled a batch at a time by the
// single simulated CPU — state transitions run at the virtual time the
// CPU reaches them, not at delivery time, so overload behaves like a
// real single-threaded server (queueing delay, not reordering).
type nodeHost struct {
	core.Host
	queue     []packet // a nil pkt is a tick
	procAt    bool     // an evProcess event is scheduled
	cpuFreeAt time.Duration
	nicFreeAt time.Duration
	dead      bool
	// inc is the node's incarnation, bumped on every Kill and Restart.
	// Node-bound events (ticks, CPU process slots) carry the
	// incarnation they were scheduled for and are discarded on
	// mismatch, so a restarted node never processes events queued for
	// its previous life. In-flight network messages are NOT gated —
	// packets really do arrive at a rebooted machine — and are instead
	// rejected by the rejoining quarantine in core.
	inc       uint64
	tickEvery time.Duration
	lastXor   uint64 // Stats.BytesParityXor as the last batch left it
}

type packet struct {
	from string
	pkt  []byte
}

// Sim is one simulation instance. Not safe for concurrent use.
type Sim struct {
	Model CostModel

	now     time.Duration
	seq     uint64
	events  eventHeap
	nodes   map[proto.NodeID]*nodeHost
	clients map[string]func(now time.Duration, from string, msg proto.Message)

	// Boot parameters, kept so Restart can construct a fresh (empty)
	// state machine for a node that crashed.
	cfg0 *proto.Config
	opts core.Options

	// Fault plane (see faults.go).
	faultFn FaultFunc
	blocked map[string]map[string]bool

	// Disk fault plane (see durable.go); nil unless EnableDurable ran.
	dur *durPlane

	// Elasticity control agent (see elastic.go); nil until the first
	// move/join/leave nemesis step fires.
	elastic *nemesisAgent

	// Delivered counts packets delivered, for sanity checks.
	Delivered uint64
	// BytesOnWire sums delivered payload bytes, for the ablations that
	// compare network cost of different strategies.
	BytesOnWire uint64
	// Faults counts injected message faults, for assertions that a
	// nemesis schedule actually did something.
	Faults FaultStats
}

// New creates a simulator over a booted cluster configuration: one
// state machine per node in the config.
func New(cfg *proto.Config, opts core.Options, model CostModel) *Sim {
	s := &Sim{
		Model:   model,
		nodes:   make(map[proto.NodeID]*nodeHost),
		clients: make(map[string]func(time.Duration, string, proto.Message)),
		cfg0:    cfg.Clone(),
		opts:    opts,
		blocked: make(map[string]map[string]bool),
	}
	for _, id := range cfg.AllNodes() {
		s.nodes[id] = &nodeHost{Host: core.Host{Node: core.New(id, cfg.Clone(), opts)}}
	}
	return s
}

// NewFromSpec boots a simulator from a cluster spec.
func NewFromSpec(spec core.ClusterSpec, model CostModel) (*Sim, error) {
	cfg, err := core.BootConfig(spec)
	if err != nil {
		return nil, err
	}
	return New(cfg, spec.Opts, model), nil
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Node returns the state machine of a node (for inspection).
func (s *Sim) Node(id proto.NodeID) *core.Node { return s.nodes[id].Node }

// Kill marks a node crashed: its CPU queue is discarded, node-bound
// events already in the heap are invalidated by the incarnation bump,
// and in-flight traffic addressed to it is dropped on delivery. See
// Restart for the other half.
func (s *Sim) Kill(id proto.NodeID) {
	h := s.nodes[id]
	h.dead = true
	h.inc++
	h.queue = nil
	h.procAt = false
	// kill -9 for the simulated disk: unsynced bytes are torn off.
	s.crashDisk(id)
}

// RegisterClient installs a handler for messages sent to a client
// address; a client's packets are decoded on delivery, never recycled.
func (s *Sim) RegisterClient(addr string, fn func(now time.Duration, from string, msg proto.Message)) {
	s.clients[addr] = fn
}

// EnableTicks schedules periodic timer events for every node, in node
// ID order: the first ticks share a timestamp and the event heap
// breaks ties by insertion sequence, so map-order insertion would make
// tick processing order — and everything downstream — vary run to run.
func (s *Sim) EnableTicks(every time.Duration) {
	ids := make([]proto.NodeID, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		h := s.nodes[id]
		h.tickEvery = every
		s.push(&event{at: s.now + every, kind: evTick, node: id, inc: h.inc})
	}
}

// At schedules fn at an absolute virtual time.
func (s *Sim) At(at time.Duration, fn func(now time.Duration)) {
	if at < s.now {
		at = s.now
	}
	s.push(&event{at: at, kind: evUser, fn: fn})
}

// Send injects a message from a client address into the fabric, encoded
// as it is sent: what the client does to msg afterwards does not travel.
func (s *Sim) Send(from, to string, msg proto.Message) {
	pkt := proto.AppendEncode(nil, msg)
	s.deliver(s.now+s.Model.NetDelay+s.txTime(len(pkt)), from, to, pkt)
}

func (s *Sim) txTime(size int) time.Duration {
	return time.Duration(float64(size+s.Model.Skew) / s.Model.NetBytesPerSec * 1e9)
}

func (s *Sim) push(e *event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

// Run processes events until the queue drains or the horizon passes.
func (s *Sim) Run(until time.Duration) {
	for len(s.events) > 0 {
		if until > 0 && s.events[0].at > until {
			break
		}
		s.Step()
	}
	if until > s.now {
		s.now = until
	}
}

// Step processes exactly one event; it returns false when the queue is
// empty. It is the building block for callers that must run until a
// condition holds while periodic ticks keep the queue non-empty.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*event)
	s.now = e.at
	switch e.kind {
	case evUser:
		e.fn(s.now)
	case evTick:
		h := s.nodes[e.node]
		if h.dead || e.inc != h.inc {
			return true // stale chain from a previous incarnation
		}
		s.enqueue(h, e.node, packet{})
		if h.tickEvery > 0 {
			s.push(&event{at: s.now + h.tickEvery, kind: evTick, node: e.node, inc: h.inc})
		}
	case evDeliver:
		s.Delivered++
		s.BytesOnWire += uint64(len(e.pkt))
		if fn, ok := s.clients[e.to]; ok {
			_ = proto.ForEachPacked(e.pkt, func(enc []byte) error {
				if m, err := proto.Decode(enc); err == nil {
					fn(s.now, e.from, m)
				}
				return nil
			})
			return true
		}
		id, ok := core.ParseNodeAddr(e.to)
		if !ok {
			return true
		}
		h, ok := s.nodes[id]
		if !ok || h.dead {
			return true
		}
		s.enqueue(h, id, packet{e.from, e.pkt})
	case evProcess:
		h := s.nodes[e.node]
		if e.inc != h.inc {
			return true // CPU slot scheduled for a previous incarnation
		}
		h.procAt = false
		if h.dead || len(h.queue) == 0 {
			return true
		}
		s.process(h, e.node)
		if len(h.queue) > 0 {
			h.procAt = true
			s.push(&event{at: h.cpuFreeAt, kind: evProcess, node: e.node, inc: h.inc})
		}
	}
	return true
}

// enqueue appends a packet or a tick to a node's CPU queue and schedules
// the processor if it is not already scheduled.
func (s *Sim) enqueue(h *nodeHost, id proto.NodeID, p packet) {
	h.queue = append(h.queue, p)
	if h.procAt {
		return
	}
	h.procAt = true
	at := s.now
	if h.cpuFreeAt > at {
		at = h.cpuFreeAt
	}
	s.push(&event{at: at, kind: evProcess, node: id, inc: h.inc})
}

// RunToQuiescence drains all events regardless of horizon.
func (s *Sim) RunToQuiescence() { s.Run(0) }

// process runs one batch on the node's CPU at the current virtual time
// and sends its outputs through the NIC. A batch is what the runner's
// drain takes: the head packet and up to core.MaxDrain packets queued
// behind it, or a tick on its own.
func (s *Sim) process(h *nodeHost, id proto.NodeID) {
	start := s.now
	n := 1
	for h.queue[0].pkt != nil && n < len(h.queue) && n <= core.MaxDrain && h.queue[n].pkt != nil {
		n++
	}
	var d time.Duration
	for _, p := range h.queue[:n] {
		d += s.charge(p.pkt)
		if p.pkt == nil {
			h.Node.HandleTick(start)
		} else {
			h.Deliver(start, p.from, p.pkt)
			transport.ReleaseBuf(p.pkt)
		}
	}
	h.queue = h.queue[n:]

	// Charge CPU for the parity work performed, read from the node's
	// own counter.
	d += time.Duration(h.Node.Stats.BytesParityXor-h.lastXor) * s.Model.CPUPerByteXor
	h.lastXor = h.Node.Stats.BytesParityXor

	// Group commit at the batch boundary: the node hands its outputs
	// over only once it has synced. A failed fsync crash-stops the node:
	// its acknowledgements for this batch are never sent, exactly like
	// the real runner.
	outs, err := h.Node.Flush()
	if err != nil {
		s.Kill(id)
		return
	}
	h.cpuFreeAt = start + d + s.syncCost(h, id)

	// Serialize the batch's packets through the NIC as Pack makes them.
	nic := max(h.nicFreeAt, h.cpuFreeAt)
	h.Pack(outs, func(to string, pkt []byte) error {
		nic += s.txTime(len(pkt))
		s.deliver(nic+s.Model.NetDelay, core.NodeAddr(id), to, pkt)
		return nil
	})
	h.nicFreeAt = nic
}

// charge is the CPU time one packet's messages cost, by wire type: an
// ack, heartbeat, commit notice or tick (a nil packet) is a cheap
// completion, a redundancy-plane apply skips client dispatch, and any
// other message, a client operation however small, is a full dispatch.
// A run of acks or commits costs what its entries would alone, and a
// purge a commit carries what a Purge costs.
func (s *Sim) charge(pkt []byte) (d time.Duration) {
	if pkt == nil {
		return s.Model.CPUFixed / 4
	}
	_ = proto.ForEachPacked(pkt, func(enc []byte) error {
		switch proto.MsgType(enc[0]) {
		case proto.TRepAck, proto.TParityAck, proto.TRepCommit:
			seqs, purges := runItems(enc)
			d += time.Duration(seqs)*(s.Model.CPUFixed/4) + time.Duration(purges)*s.Model.CPUFixedRepl
		case proto.THeartbeat, proto.THeartbeatAck, proto.TConfigAck:
			d += s.Model.CPUFixed / 4
		case proto.TRepAppend, proto.TParityUpdate, proto.TPurge:
			d += s.Model.CPUFixedRepl
		default:
			d += s.Model.CPUFixed
		}
		return nil
	})
	return d
}

// runItems returns how many entries an encoded ack or commit names and
// how many purges it carries: one and none if it does not decode.
func runItems(enc []byte) (seqs, purges int) {
	m, err := proto.Decode(enc)
	if err != nil {
		return 1, 0
	}
	defer proto.Release(m)
	switch m := m.(type) {
	case *proto.RepAck:
		return int(m.More) + 1, 0
	case *proto.ParityAck:
		return int(m.More) + 1, 0
	case *proto.RepCommit:
		m.EachPurge(func(string, proto.Version) { purges++ })
		return int(m.More) + 1, purges
	}
	return 1, 0
}

// eachType calls fn with the wire type of every message pkt carries.
func eachType(pkt []byte, fn func(proto.MsgType)) {
	_ = proto.ForEachPacked(pkt, func(enc []byte) error {
		fn(proto.MsgType(enc[0]))
		return nil
	})
}
