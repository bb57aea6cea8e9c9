// Package core implements the Ring server: a single-threaded,
// event-driven node state machine that plays every role of the paper's
// architecture — shard coordinator, replica, parity node, leader, and
// spare — plus the livenet runner that drives a cluster of such nodes
// over a real transport.
//
// The state machine design mirrors the paper's single-threaded servers
// and is what allows the same node logic to run both over goroutines
// and real message fabrics (tests, examples, live benchmarks) and
// inside the discrete-event simulator (package sim) that reproduces
// the paper's microsecond-scale latency figures.
package core

import (
	"fmt"
	"time"

	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/store"
)

// nodeAddrs caches the addresses of small node IDs: NodeAddr sits on
// the per-message send path, where a fmt.Sprintf per call is real CPU.
var nodeAddrs = func() (a [256]string) {
	for i := range a {
		a[i] = fmt.Sprintf("node/%d", i)
	}
	return
}()

// NodeAddr returns the fabric address of a node ID.
func NodeAddr(id proto.NodeID) string {
	if int(id) < len(nodeAddrs) {
		return nodeAddrs[id]
	}
	return fmt.Sprintf("node/%d", id)
}

// Options tunes a node. The zero value is completed by Defaults.
type Options struct {
	// BlockSize is the capacity of one SRS logical block in bytes.
	BlockSize int
	// HeartbeatEvery is the leader's heartbeat period.
	HeartbeatEvery time.Duration
	// FailAfter is the silence threshold after which the leader
	// declares a node dead (and a follower suspects the leader).
	FailAfter time.Duration
	// KeepVersions is how many committed versions older than the
	// newest committed one are retained before GC removes them. The
	// paper's default ("removing of old versions after every committed
	// put") is 0; the dynamic-importance use case raises it.
	KeepVersions int
	// KeepDurableBackup prevents GC from removing the newest committed
	// version that lives in a *reliable* memgest while every newer
	// version sits in the unreliable Rep(1) scheme — the paper's
	// "preserving previous reliable copies" semantics for the
	// heavy-updates use case. It composes with KeepVersions.
	KeepDurableBackup bool
	// ChaosUnsafeAck deliberately acknowledges writes before the
	// replication quorum is reached. It exists ONLY to validate the
	// chaos harness (cmd/ringchaos -bug): the linearizability checker
	// must catch the lost updates this produces under faults. Never
	// set it outside that test path.
	ChaosUnsafeAck bool
	// ChaosUnsafeConvert deliberately acknowledges moves before the
	// destination write is launched and purges the source version
	// before that write is durable. It exists ONLY to validate the
	// elasticity chaos lane (cmd/ringchaos -convbug): a coordinator
	// crash in the window silently loses the key, which the checker must
	// flag. Never set it outside that path.
	ChaosUnsafeConvert bool
	// SyncReplication switches Rep memgests from quorum commits
	// (majority of r) to fully synchronous commits (all r copies), the
	// alternative discussed in Section 3.1: r-1 failures tolerated for
	// availability, at higher put latency. Used by the ablation bench.
	SyncReplication bool
}

// Defaults fills unset fields.
func (o Options) Defaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 64 << 10
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 50 * time.Millisecond
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 5 * o.HeartbeatEvery
	}
	return o
}

// Out is one outgoing message produced by a state transition.
type Out struct {
	To  string
	Msg proto.Message
	// Scratch, when set, is the pooled buffer behind Msg's payload (a
	// parity delta, the copy of a stored value): whoever encodes Msg
	// hands it back with transport.ReleaseBuf afterwards.
	// A consumer that never encodes (the simulator) ignores it and the
	// collector takes the buffer.
	Scratch []byte
}

// Node is one Ring server. It is not safe for concurrent use: a runner
// must serialize HandleMessage, HandleTick and Flush calls, exactly like
// the paper's single-threaded event loop.
type Node struct {
	id   proto.NodeID
	opts Options

	cfg *proto.Config

	// idx is the volatile hashtable of each shard this node holds a role
	// in: the one index behind the shard's table of every memgest.
	idx map[uint32]*store.MetaIndex
	// mg is the per-memgest state for every role this node plays.
	mg map[proto.MemgestID]*mgState

	// Leader state. lastAck holds when each member last answered a
	// heartbeat; installConfig keeps its keys exactly the members.
	lastAck  map[proto.NodeID]time.Duration
	nextMgID proto.MemgestID
	// Follower state.
	lastHeartbeat time.Duration

	// wants is everything this node's roles lack, and gathers the parity
	// stripes it is collecting block by block (see recovery.go, which
	// owns both).
	wants   wantTable
	gathers []*gather

	// moving tracks the open move windows of shards this node
	// coordinates: client writes to a moving key park here and replay
	// when the window closes (commit or abort).
	moving map[moveKey]*moveState
	// bulkMoves aggregates in-flight prefix moves; nextBulkID names
	// them (node-local, never crosses the wire).
	bulkMoves  map[string]*bulkMove
	nextBulkID uint64
	// pendingChange is the leader's configuration change held back behind a
	// fence (one at a time; see reconfig.go, which owns it).
	pendingChange *change

	// rejoining is true on a node that restarted with empty state and
	// has not yet been re-admitted by the leader (see rejoin.go). While
	// set, only ConfigPush, Resolve, and client retries are serviced.
	rejoining    bool
	joinAttempts int

	// durable is the optional persistent engine (see durable.go);
	// durableErr is the sticky first persist failure (the node must
	// crash-stop once set); durStash is state recovered from disk,
	// consumed when the re-admitting configuration installs.
	durable    *replog.Durable
	durableErr error
	durStash   map[replog.ShardKey]*replog.RecoveredShard
	// acksOwed counts the acknowledgements (proto.MsgType.IsAck) queued
	// since the last Flush and tickOwed records a tick in the same span:
	// a batch with neither owes the disk nothing (see durable.go).
	acksOwed int
	tickOwed bool

	nextReq proto.ReqID
	now     time.Duration
	// outs collects the batch's outputs until Flush hands them over;
	// flushed is the buffer the last Flush handed out, reused after next.
	outs, flushed []Out
	// deltas is doWrite's reusable list of the m per-parity delta
	// buffers of the put in hand.
	deltas [][]byte

	// Counters for tests and instrumentation.
	Stats Stats
	// Metrics is the always-on observability surface (atomic counters,
	// latency histograms, trace ring); see NodeMetrics for the reading
	// discipline.
	Metrics *NodeMetrics
}

// Stats counts node activity.
type Stats struct {
	Puts, Gets, Deletes, Moves   uint64
	Commits, ParkedGets          uint64
	ParityUpdates, RepAppends    uint64
	BlocksRecovered, MetaRecovs  uint64
	BytesParityXor, BytesWritten uint64
	// BytesDecoded counts erasure-decode work (recovery path); the
	// simulator charges CPU time proportionally.
	BytesDecoded uint64
	// BytesMetaInstalled counts metadata records installed during
	// recovery, which dominates the Figure 12 experiment.
	BytesMetaInstalled uint64
}

type recoveredRole uint8

const (
	roleCoordinator recoveredRole = iota + 1
	roleReplica
	roleParity
)

// newNode creates a node that holds nothing yet.
func newNode(id proto.NodeID, opts Options) *Node {
	return &Node{
		id:        id,
		opts:      opts.Defaults(),
		idx:       make(map[uint32]*store.MetaIndex),
		mg:        make(map[proto.MemgestID]*mgState),
		wants:     wantTable{at: make(map[wantID]*want), byReq: make(map[proto.ReqID]*want)},
		moving:    make(map[moveKey]*moveState),
		bulkMoves: make(map[string]*bulkMove),
		nextReq:   1,
		nextMgID:  1,
		Metrics:   newNodeMetrics(),
	}
}

// New creates a node with an installed initial configuration. All
// nodes of a fresh cluster are constructed with the same config; no
// recovery is triggered for roles assigned at construction.
func New(id proto.NodeID, cfg *proto.Config, opts Options) *Node {
	n := newNode(id, opts)
	n.installConfig(cfg)
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() proto.NodeID { return n.id }

// Config returns the currently installed configuration.
func (n *Node) Config() *proto.Config { return n.cfg }

// IsLeader reports whether this node is the current leader.
func (n *Node) IsLeader() bool { return n.cfg != nil && n.cfg.Leader == n.id }

// send queues an outgoing message.
func (n *Node) send(to string, msg proto.Message) {
	n.sendScratch(to, msg, nil)
}

// sendScratch queues a message whose payload lives in the pooled buffer
// scratch (see Out.Scratch). Every output passes through here, so this
// is where a batch learns it owes an acknowledgement.
func (n *Node) sendScratch(to string, msg proto.Message, scratch []byte) {
	if msg.Type().IsAck() {
		n.acksOwed++
	}
	n.outs = append(n.outs, Out{To: to, Msg: msg, Scratch: scratch})
}

// sendNode queues a message to another node.
func (n *Node) sendNode(id proto.NodeID, msg proto.Message) {
	n.send(NodeAddr(id), msg)
}

// reqID allocates an internal request id for node-initiated requests.
func (n *Node) reqID() proto.ReqID {
	r := n.nextReq
	n.nextReq++
	return r
}

// HandleMessage processes one incoming message at the given node-local
// time. `from` is the fabric address of the sender. The messages to
// transmit stay in the node until Flush.
//
//ring:hotpath-stop the Node state machine is bounded by its own rules (simdeterminism), not the zero-alloc budget
func (n *Node) HandleMessage(now time.Duration, from string, msg proto.Message) {
	n.now = now
	n.Metrics.Events.Inc()
	if n.rejoining {
		n.handleRejoining(from, msg)
		return
	}
	switch m := msg.(type) {
	// Client operations.
	case *proto.Put:
		n.handlePut(from, m)
	case *proto.Get:
		n.handleGet(from, m)
	case *proto.Delete:
		n.handleDelete(from, m)
	case *proto.Move:
		n.handleMove(from, m)
	case *proto.Resize:
		n.handleResize(from, m)
	case *proto.CreateMemgest:
		n.handleCreateMemgest(from, m)
	case *proto.DeleteMemgest:
		n.handleDeleteMemgest(from, m)
	case *proto.SetDefault:
		n.handleSetDefault(from, m)
	case *proto.GetDescriptor:
		n.handleGetDescriptor(from, m)
	case *proto.Resolve:
		n.send(from, &proto.ResolveReply{Req: m.Req, Config: n.cfg.Clone()})
	// Replication plane.
	case *proto.RepAppend:
		n.handleRepAppend(from, m)
	case *proto.RepAck:
		n.handleAck(from, m.Memgest, m.Shard, m.Seq)
	case *proto.RepCommit:
		n.handleRepCommit(from, m)
	case *proto.ParityUpdate:
		n.handleParityUpdate(from, m)
	case *proto.ParityAck:
		n.handleAck(from, m.Memgest, m.Shard, m.Seq)
	case *proto.Purge:
		n.handlePurge(from, m)
	// Membership.
	case *proto.Heartbeat:
		n.handleHeartbeat(from, m)
	case *proto.HeartbeatAck:
		n.handleHeartbeatAck(from, m)
	case *proto.ConfigPush:
		n.handleConfigPush(from, m)
	case *proto.ConfigAck:
		n.handleConfigAck(from, m)
	case *proto.Join:
		n.handleJoin(from, m)
	// Recovery.
	case *proto.MetaFetch:
		n.handleMetaFetch(from, m)
	case *proto.MetaFetchReply:
		n.handleMetaFetchReply(from, m)
	case *proto.Fetch:
		n.handleFetch(from, m)
	case *proto.FetchReply:
		n.handleFetchReply(from, m)
	case *proto.Tick:
		n.handleTick()
	}
}

// HandleTick drives time-based behaviour (heartbeats, failure
// detection, background recovery).
//
//ring:hotpath-stop the Node state machine is bounded by its own rules (simdeterminism), not the zero-alloc budget
func (n *Node) HandleTick(now time.Duration) {
	n.now = now
	n.Metrics.Ticks.Inc()
	n.handleTick()
}

// Flush ends an event batch: it applies the fsync policy if the batch
// owes a sync (it queued an acknowledgement or ran a tick) and only
// then hands over what the handlers queued. It is the one way outputs
// leave a node, so no acknowledgement is transmitted ahead of the
// records behind it, whatever order a handler persisted and queued in.
// On error nothing is handed over and the caller must crash-stop the
// node. The slice is the caller's until the Flush after the next one.
func (n *Node) Flush() ([]Out, error) {
	acks, owed := n.acksOwed, n.acksOwed > 0 || n.tickOwed
	n.acksOwed, n.tickOwed = 0, false
	outs := n.outs
	n.outs, n.flushed = n.flushed[:0], outs
	if n.durable != nil && n.durableErr == nil && owed {
		n.durableErr = n.durable.MaybeSync(n.now, acks)
	}
	if n.durable != nil && n.durableErr != nil {
		return nil, n.durableErr
	}
	return outs, nil
}

// shardOf returns the shard a key maps to under the current config.
func (n *Node) shardOf(key string) uint32 {
	return uint32(n.cfg.ShardOf(store.KeyHash(key)))
}

// coordinates reports whether this node coordinates the given shard.
func (n *Node) coordinates(shard uint32) bool {
	return int(shard) < len(n.cfg.Coords) && n.cfg.Coords[shard] == n.id
}

// indexFor returns (creating if needed) the index of a shard.
func (n *Node) indexFor(shard uint32) *store.MetaIndex {
	x, ok := n.idx[shard]
	if !ok {
		x = store.NewMetaIndex()
		x.Poison = PoisonPayloads
		n.idx[shard] = x
	}
	return x
}
