// Package sim is the discrete-event network-and-CPU simulator that
// stands in for the paper's InfiniBand testbed. It drives the exact
// same core.Node state machines that run in production, but in virtual
// time, with a calibrated cost model:
//
//   - Links have a fixed one-way propagation delay plus a
//     size-proportional serialization term (NIC bandwidth). Outgoing
//     messages of one node share its NIC and are serialized.
//   - Each node has a single CPU (the paper's servers are
//     single-threaded). Handling a message costs a base overhead plus
//     terms proportional to the actual bytes the node copied, XORed
//     into parity, decoded, or installed during recovery — all read
//     from the node's own Stats counters, so the model charges for
//     the work the real implementation performed.
//
// Because the protocol structure (hops, fan-outs, byte counts) is
// real, the relative shapes of the paper's figures — REP1 < REPr <
// SRS put latency, crossovers with object size, throughput saturation
// of a single-threaded coordinator — emerge from execution rather
// than being hard-coded; only the per-unit constants are calibrated.
package sim

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
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
	// CPUPerByteCopy charges for bytes written into the local store.
	CPUPerByteCopy time.Duration
	// CPUPerByteXor charges for bytes of GF-multiply/XOR parity work.
	CPUPerByteXor time.Duration
	// CPUPerByteDecode charges for erasure-decode bytes (recovery).
	CPUPerByteDecode time.Duration
	// CPUPerByteMeta charges for metadata record installation during
	// recovery.
	CPUPerByteMeta time.Duration
	// CPUPerByteSend charges for staging outgoing message bytes.
	CPUPerByteSend time.Duration
}

// DefaultModel returns constants calibrated so that the Figure 7
// reproduction lands in the paper's range (get ≈ 5 µs, REP1 put
// ≈ 5 µs at small sizes, SRS32 put ≈ 3x REP1 at 2 KiB).
func DefaultModel() CostModel {
	return CostModel{
		NetDelay:         1500 * time.Nanosecond,
		NetBytesPerSec:   3.2e9, // ~26 Gb/s effective of the 40 Gb/s link
		CPUFixed:         1400 * time.Nanosecond,
		CPUFixedRepl:     700 * time.Nanosecond,
		CPUPerByteCopy:   time.Nanosecond / 4,
		CPUPerByteXor:    2 * time.Nanosecond,
		CPUPerByteDecode: time.Nanosecond / 2,
		CPUPerByteMeta:   time.Nanosecond / 4,
		CPUPerByteSend:   time.Nanosecond / 4,
	}
}

// event kinds.
type evKind uint8

const (
	evDeliver evKind = iota + 1 // message arrives at a node or client
	evTick                      // periodic node timer
	evUser                      // scheduled callback (workload arrival)
	evProcess                   // a node CPU picks its next queued message
)

type event struct {
	at   time.Duration
	seq  uint64 // tie-break for determinism
	kind evKind

	to      string
	from    string
	msg     proto.Message
	payload int // wire size

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

// nodeHost wraps a core.Node with its simulated CPU and NIC. Incoming
// messages enter a FIFO queue and are handled one at a time by the
// single simulated CPU — state transitions run at the virtual time the
// CPU reaches them, not at delivery time, so overload behaves like a
// real single-threaded server (queueing delay, not reordering).
type nodeHost struct {
	node      *core.Node
	queue     []queuedMsg
	procAt    bool // an evProcess event is scheduled
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
	lastStats core.Stats
}

type queuedMsg struct {
	from string
	msg  proto.Message
	size int
	tick bool
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
	// convert/join/leave nemesis step fires.
	elastic *nemesisAgent

	// Delivered counts messages delivered, for sanity checks.
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
		s.nodes[id] = &nodeHost{node: core.New(id, cfg.Clone(), opts)}
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
func (s *Sim) Node(id proto.NodeID) *core.Node { return s.nodes[id].node }

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
// address.
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

// Send injects a message from a client address into the fabric.
func (s *Sim) Send(from, to string, msg proto.Message) {
	size := len(proto.Encode(msg))
	s.deliver(s.now+s.Model.NetDelay+s.txTime(size), from, to, msg, size)
}

func (s *Sim) txTime(size int) time.Duration {
	return time.Duration(float64(size) / s.Model.NetBytesPerSec * 1e9)
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
		s.enqueue(h, e.node, queuedMsg{tick: true})
		if h.tickEvery > 0 {
			s.push(&event{at: s.now + h.tickEvery, kind: evTick, node: e.node, inc: h.inc})
		}
	case evDeliver:
		s.Delivered++
		s.BytesOnWire += uint64(e.payload)
		if fn, ok := s.clients[e.to]; ok {
			fn(s.now, e.from, e.msg)
			return true
		}
		id, ok := parseNode(e.to)
		if !ok {
			return true
		}
		h, ok := s.nodes[id]
		if !ok || h.dead {
			return true
		}
		s.enqueue(h, id, queuedMsg{from: e.from, msg: e.msg, size: e.payload})
	case evProcess:
		h := s.nodes[e.node]
		if e.inc != h.inc {
			return true // CPU slot scheduled for a previous incarnation
		}
		h.procAt = false
		if h.dead || len(h.queue) == 0 {
			return true
		}
		qm := h.queue[0]
		h.queue = h.queue[1:]
		s.process(h, e.node, qm)
		if len(h.queue) > 0 {
			h.procAt = true
			s.push(&event{at: h.cpuFreeAt, kind: evProcess, node: e.node, inc: h.inc})
		}
	}
	return true
}

// enqueue appends a message to a node's CPU queue and schedules the
// processor if it is not already scheduled.
func (s *Sim) enqueue(h *nodeHost, id proto.NodeID, qm queuedMsg) {
	h.queue = append(h.queue, qm)
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

// process runs one queued message on the node's CPU at the current
// virtual time and schedules its outputs through the NIC.
func (s *Sim) process(h *nodeHost, id proto.NodeID, qm queuedMsg) {
	start := s.now
	if qm.tick {
		h.node.HandleTick(start)
	} else {
		h.node.HandleMessage(start, qm.from, qm.msg)
	}

	// Charge CPU for the actual work performed, read from the node's
	// own counters. Small control messages (acks, heartbeats, ticks)
	// cost a fraction of a full request dispatch, approximating cheap
	// RDMA completions.
	st := h.node.Stats
	var d time.Duration
	switch {
	case isControl(qm):
		// Acks, heartbeats, commit notices, ticks: cheap completions.
		d = s.Model.CPUFixed / 4
	case isReplicationPlane(qm.msg):
		d = s.Model.CPUFixedRepl
	default:
		d = s.Model.CPUFixed
	}
	d += time.Duration(st.BytesWritten-h.lastStats.BytesWritten) * s.Model.CPUPerByteCopy
	d += time.Duration(st.BytesParityXor-h.lastStats.BytesParityXor) * s.Model.CPUPerByteXor
	d += time.Duration(st.BytesDecoded-h.lastStats.BytesDecoded) * s.Model.CPUPerByteDecode
	d += time.Duration(st.BytesMetaInstalled-h.lastStats.BytesMetaInstalled) * s.Model.CPUPerByteMeta
	d += time.Duration(qm.size) * s.Model.CPUPerByteCopy
	h.lastStats = st

	// Group commit at the batch boundary: the node hands its outputs
	// over only once it has synced. A failed fsync crash-stops the node:
	// its acknowledgements for this batch are never sent, exactly like
	// the real runner.
	outs, err := h.node.Flush()
	if err != nil {
		s.Kill(id)
		return
	}
	d += s.syncCost(h, id)

	outBufs := make([]int, len(outs))
	for i, o := range outs {
		size := len(proto.Encode(o.Msg))
		outBufs[i] = size
		d += time.Duration(size) * s.Model.CPUPerByteSend
	}
	done := start + d
	h.cpuFreeAt = done

	// Serialize outgoing messages through the NIC.
	nic := h.nicFreeAt
	if done > nic {
		nic = done
	}
	for i, o := range outs {
		tx := s.txTime(outBufs[i])
		nic += tx
		s.deliver(nic+s.Model.NetDelay, core.NodeAddr(id), o.To, o.Msg, outBufs[i])
	}
	h.nicFreeAt = nic
}

// isReplicationPlane reports whether a message is handled by the
// redundancy apply path rather than the client dispatch path.
func isReplicationPlane(m proto.Message) bool {
	switch m.(type) {
	case *proto.RepAppend, *proto.ParityUpdate, *proto.Purge, *proto.RepCommit:
		return true
	}
	return false
}

// isControl reports whether a queued item is a pure control message
// whose handling approximates a cheap RDMA completion. Client
// operations are never control messages, however small their wire
// size.
func isControl(qm queuedMsg) bool {
	if qm.tick {
		return true
	}
	switch qm.msg.(type) {
	case *proto.RepAck, *proto.ParityAck, *proto.RepCommit,
		*proto.Heartbeat, *proto.HeartbeatAck, *proto.ConfigAck:
		return true
	}
	return false
}

func parseNode(addr string) (proto.NodeID, bool) {
	var id uint32
	if _, err := fmt.Sscanf(addr, "node/%d", &id); err != nil {
		return 0, false
	}
	return proto.NodeID(id), true
}
