package core

import (
	"ring/internal/metrics"
	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/store"
)

// MemgestMetrics counts client operations actually executed against one
// memgest. Ops are counted only after routing, serving, and memgest
// resolution succeed — a scripted workload of N puts therefore shows
// exactly N here, never N plus redirects.
type MemgestMetrics struct {
	Puts    metrics.Counter
	Gets    metrics.Counter
	Deletes metrics.Counter
	Moves   metrics.Counter
	Commits metrics.Counter
	// ValueSlotsRelocated and ValueChunksReleased are what the tables of
	// roles this node has since lost had counted (see loseRole); the
	// tables it holds keep their own until then.
	ValueSlotsRelocated metrics.Counter
	ValueChunksReleased metrics.Counter
}

// NodeMetrics is a node's always-on instrumentation. Counters and
// histograms are atomic (readable by a scraper at any time); the trace
// ring and the per-memgest map follow the node's single-threaded
// discipline and must be read under the runner lock (Runner.Inspect).
// MsgsOut and PacketsOut are the only numbers of a node bumped off that
// lock, by the host's send pass after Runner.endBatch releases it;
// Stats and everything else here are bumped by the state machine under
// it.
type NodeMetrics struct {
	// Events counts state-machine message dispatches; Ticks counts
	// timer dispatches.
	Events metrics.Counter
	Ticks  metrics.Counter
	// MsgsOut and PacketsOut measure the host's send coalescing: messages
	// emitted by the state machine vs. packets actually transmitted
	// after per-destination batching.
	MsgsOut    metrics.Counter
	PacketsOut metrics.Counter
	// InboxHighWater is the largest backlog one drain pass consumed.
	InboxHighWater metrics.MaxGauge
	// CommitRep and CommitSRS hold commit latency (write arrival to
	// quorum commit) split by scheme class.
	CommitRep metrics.Histogram
	CommitSRS metrics.Histogram
	// RecoveryReasks counts the recovery asks sent a second time or
	// more: the source refused or stayed silent.
	RecoveryReasks metrics.Counter
	// ShardsMoved counts placement slots the leader actually reassigned
	// across configuration changes — the minimal-movement metric the
	// elasticity tests assert on (a join moves zero; a leave or a
	// failover moves only the departed node's slots).
	ShardsMoved metrics.Counter
	// ConfigRepushes counts configurations the leader sent a second
	// time: a fence its departing node has not acknowledged, or the
	// current configuration to a member whose heartbeat ack showed an
	// older epoch. Zero on a fabric that loses nothing.
	ConfigRepushes metrics.Counter
	// MovesReplanned counts move windows aborted and relaunched because
	// a configuration change invalidated their in-flight destination
	// write.
	MovesReplanned metrics.Counter
	// MovesAborted counts move windows the timeout closed because their
	// destination write lost an append or ack to the network (the caller
	// retries the move).
	MovesAborted metrics.Counter

	// Trace is the per-op trace ring (runner-lock discipline).
	Trace *metrics.TraceRing

	// mg holds per-memgest op counters, maintained by installConfig so
	// the hot path dereferences a cached pointer, never this map.
	mg map[proto.MemgestID]*MemgestMetrics
}

func newNodeMetrics() *NodeMetrics {
	return &NodeMetrics{
		Trace: metrics.NewTraceRing(256),
		mg:    make(map[proto.MemgestID]*MemgestMetrics),
	}
}

// mgMetrics returns (creating if needed) the counters of a memgest.
// Counters survive reconfigurations that keep the memgest alive.
func (m *NodeMetrics) mgMetrics(id proto.MemgestID) *MemgestMetrics {
	mm, ok := m.mg[id]
	if !ok {
		mm = &MemgestMetrics{}
		m.mg[id] = mm
	}
	return mm
}

// MemgestOpCounts is the JSON-ready copy of one memgest's counters,
// plus what the memgest holds in memory on this node, read from the
// store at snapshot time (nothing is kept up to date on the hot path).
type MemgestOpCounts struct {
	Puts    uint64 `json:"puts"`
	Gets    uint64 `json:"gets"`
	Deletes uint64 `json:"deletes"`
	Moves   uint64 `json:"moves"`
	Commits uint64 `json:"commits"`
	// BlockBytesUsed is the bytes allocated to values in the SRS block
	// heaps this node coordinates; BlockBytesBacked and
	// ParityBytesBacked are the memory actually behind its data blocks
	// and its parity blocks (see store.BlockHeap: capacity costs nothing
	// until written). ValueBytesUsed is the bytes of the Rep values this
	// node holds, as coordinator or replica, and ValueBytesBacked the
	// chunks behind their slots (see store.MetaTable.Hold).
	// ValueSlotsRelocated and ValueChunksReleased count, since the node
	// started, the Rep values its tables copied to another chunk and the
	// chunks they emptied that way and gave back to the process (see
	// store.ValueMoves): zero while keys only arrive. MetaBytes is what
	// the node's entries of the memgest take beside their values: slab
	// slots, and their share of the keys and hash indexes of their
	// shards (see store.MetaTable.MetaBytes).
	BlockBytesUsed      uint64 `json:"store.block_bytes_used"`
	BlockBytesBacked    uint64 `json:"store.block_bytes_backed"`
	ParityBytesBacked   uint64 `json:"store.parity_bytes_backed"`
	ValueBytesUsed      uint64 `json:"store.value_bytes_used"`
	ValueBytesBacked    uint64 `json:"store.value_bytes_backed"`
	ValueSlotsRelocated uint64 `json:"store.value_slots_relocated"`
	ValueChunksReleased uint64 `json:"store.value_chunks_released"`
	MetaBytes           uint64 `json:"store.meta_bytes"`
}

// MetricsSnapshot is a point-in-time copy of a node's instrumentation,
// shaped for /debug/ringvars. Every view derives from it: /metrics
// renders its leaves, and ringctl stats folds the nodes' copies into
// one, adding every number except those tagged fold:"max".
type MetricsSnapshot struct {
	Events          uint64                              `json:"events"`
	Ticks           uint64                              `json:"ticks"`
	MsgsOut         uint64                              `json:"msgs_out"`
	PacketsOut      uint64                              `json:"packets_out"`
	InboxHighWater  int64                               `json:"inbox_high_water" fold:"max"`
	RecoveryBacklog int64                               `json:"recovery_backlog"`
	ShardsMoved     uint64                              `json:"shards_moved"`
	ConfigRepushes  uint64                              `json:"config_repushes"`
	MovesReplanned  uint64                              `json:"moves_replanned"`
	MovesAborted    uint64                              `json:"moves_aborted"`
	CommitRep       metrics.HistSnapshot                `json:"commit_latency_rep"`
	CommitSRS       metrics.HistSnapshot                `json:"commit_latency_srs"`
	Stats           Stats                               `json:"stats"`
	Memgests        map[proto.MemgestID]MemgestOpCounts `json:"memgests"`
	TraceRecorded   uint64                              `json:"trace_recorded"`
	// MetaEntries counts the metadata entries the node holds, over every
	// table of every role: what the collected heap is mostly made of.
	MetaEntries uint64 `json:"meta_entries"`
	// WritesAwaitingQuorum counts the coordinated writes whose redundancy
	// acks are owed (replog.Tracker.Pending over the shards): 0 at rest.
	WritesAwaitingQuorum int64 `json:"core.writes_awaiting_quorum"`
	// ShardsRecovering and ShardsDegraded count the shards this node
	// coordinates that still want metadata (and refuse requests) and
	// that want values or blocks (and fetch what a request needs first);
	// RecoveryBacklog is the length of the want table they are read off.
	// All three are 0 at rest. RecoveryReasks counts asks that had to be
	// repeated.
	ShardsRecovering int64  `json:"core.shards_recovering"`
	ShardsDegraded   int64  `json:"core.shards_degraded"`
	RecoveryReasks   uint64 `json:"core.recovery_reasks"`
	// Durable is the durable tier's instrumentation; nil on a volatile
	// node.
	Durable *replog.Stats `json:"durable,omitempty"`
}

// MetricsSnapshot copies the node's instrumentation. Like every Node
// method it must run on the node's event goroutine or under its
// runner's Inspect.
func (n *Node) MetricsSnapshot() MetricsSnapshot {
	m := n.Metrics
	s := MetricsSnapshot{
		Events:          m.Events.Load(),
		Ticks:           m.Ticks.Load(),
		MsgsOut:         m.MsgsOut.Load(),
		PacketsOut:      m.PacketsOut.Load(),
		InboxHighWater:  m.InboxHighWater.Load(),
		RecoveryBacklog: int64(len(n.wants.at)),
		RecoveryReasks:  m.RecoveryReasks.Load(),
		ShardsMoved:     m.ShardsMoved.Load(),
		ConfigRepushes:  m.ConfigRepushes.Load(),
		MovesReplanned:  m.MovesReplanned.Load(),
		MovesAborted:    m.MovesAborted.Load(),
		CommitRep:       m.CommitRep.Snapshot(),
		CommitSRS:       m.CommitSRS.Snapshot(),
		Stats:           n.Stats,
		Memgests:        make(map[proto.MemgestID]MemgestOpCounts, len(m.mg)),
		TraceRecorded:   m.Trace.Recorded(),
	}
	s.ShardsRecovering, s.ShardsDegraded = n.shardStates()
	for id, mm := range m.mg {
		c := MemgestOpCounts{
			Puts:    mm.Puts.Load(),
			Gets:    mm.Gets.Load(),
			Deletes: mm.Deletes.Load(),
			Moves:   mm.Moves.Load(),
			Commits: mm.Commits.Load(),

			ValueSlotsRelocated: mm.ValueSlotsRelocated.Load(),
			ValueChunksReleased: mm.ValueChunksReleased.Load(),
		}
		if st := n.mg[id]; st != nil {
			table := func(t *store.MetaTable) {
				used, backed := t.ValueBytes()
				c.ValueBytesUsed += used
				c.ValueBytesBacked += backed
				moves := t.ValueMoves()
				c.ValueSlotsRelocated += moves.SlotsRelocated
				c.ValueChunksReleased += moves.ChunksReleased
				c.MetaBytes += t.MetaBytes()
				s.MetaEntries += uint64(t.Len())
			}
			for _, cs := range st.coord {
				table(cs.meta)
				s.WritesAwaitingQuorum += int64(cs.tracker.Pending())
				if cs.heap != nil {
					c.BlockBytesUsed += cs.heap.UsedBytes()
					c.BlockBytesBacked += cs.heap.BackedBytes()
				}
			}
			for _, rt := range st.rmeta {
				table(rt)
			}
			if st.parity != nil {
				c.ParityBytesBacked = st.parity.BackedBytes()
			}
		}
		s.Memgests[id] = c
	}
	if n.durable != nil {
		ds := n.durable.DurableStats()
		ds.Failed = n.durableErr != nil
		s.Durable = &ds
	}
	return s
}

// TraceLast copies out the node's most recent n trace entries (same
// calling discipline as MetricsSnapshot).
func (n *Node) TraceLast(count int) []metrics.TraceEntry {
	return n.Metrics.Trace.Last(count)
}
