package sim

import (
	"slices"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
)

// This file is the simulator's fault plane: crash/restart with
// incarnation fencing, address-pair partitions, and a per-packet
// fault hook that can drop, delay, or duplicate traffic. Everything
// runs in virtual time, so a seeded nemesis schedule (nemesis.go)
// replays bit-for-bit.

// FaultAction is the verdict of a FaultFunc for one packet about to
// enter the fabric. Zero value = deliver normally. Reordering is not a
// separate knob: delaying some packets and not others reorders them.
type FaultAction struct {
	// Drop discards the packet (it never arrives).
	Drop bool
	// Delay postpones arrival by the given extra virtual time.
	Delay time.Duration
	// Duplicate delivers a second copy one NetDelay after the first.
	Duplicate bool
}

// FaultFunc inspects a packet (one message, or a batch's messages to one
// peer) at send time and decides its fate. It is called in deterministic
// event order, so a seeded implementation makes the whole run
// replayable. It must neither keep nor change pkt.
type FaultFunc func(now time.Duration, from, to string, pkt []byte) FaultAction

// FaultStats counts injected faults.
type FaultStats struct {
	Dropped, Delayed, Duplicated uint64
	// Corrupted counts WAL bit flips that actually landed (a corrupt
	// step on an empty WAL is a no-op).
	Corrupted uint64
}

// SetFaultFunc installs (or, with nil, removes) the packet fault
// hook. It is consulted for every packet entering the fabric, from
// clients and nodes alike, after the partition check.
func (s *Sim) SetFaultFunc(fn FaultFunc) { s.faultFn = fn }

// Partition bidirectionally blocks traffic between two fabric
// addresses. Messages already in flight are not recalled (they were
// on the wire before the cut).
func (s *Sim) Partition(a, b string) {
	s.block(a, b)
	s.block(b, a)
}

// Heal removes a Partition between two addresses.
func (s *Sim) Heal(a, b string) {
	s.unblock(a, b)
	s.unblock(b, a)
}

// PartitionNodes is Partition over node IDs.
func (s *Sim) PartitionNodes(a, b proto.NodeID) {
	s.Partition(core.NodeAddr(a), core.NodeAddr(b))
}

// HealNodes is Heal over node IDs.
func (s *Sim) HealNodes(a, b proto.NodeID) {
	s.Heal(core.NodeAddr(a), core.NodeAddr(b))
}

// HealAll removes every partition.
func (s *Sim) HealAll() {
	for k := range s.blocked {
		delete(s.blocked, k)
	}
}

func (s *Sim) block(from, to string) {
	m := s.blocked[from]
	if m == nil {
		m = make(map[string]bool)
		s.blocked[from] = m
	}
	m[to] = true
}

func (s *Sim) unblock(from, to string) {
	if m := s.blocked[from]; m != nil {
		delete(m, to)
		if len(m) == 0 {
			delete(s.blocked, from)
		}
	}
}

// Dead reports whether a node is currently crashed.
func (s *Sim) Dead(id proto.NodeID) bool { return s.nodes[id].dead }

// Restart brings a killed node back as a rejoining quarantined state
// machine built from the boot configuration: it knows peer addresses
// but installs no data roles until the current leader re-admits it.
// With the disk fault plane active (EnableDurable) the node recovers
// from its surviving disk state first — replaying the WAL, rebuilding
// its tables up to the durable commit index, and advertising the
// recovered state in its Join so the leader lets it keep its roles and
// delta-sync; otherwise it comes back EMPTY (core.NewRejoining). The
// incarnation bump fences every event scheduled for the previous life.
func (s *Sim) Restart(id proto.NodeID) {
	h := s.nodes[id]
	h.inc++
	h.dead = false
	h.queue = nil
	h.procAt = false
	h.cpuFreeAt = s.now
	h.nicFreeAt = s.now
	h.lastStats = core.Stats{}
	h.Host = core.Host{Node: s.recoverNode(id)}
	if h.tickEvery > 0 {
		s.push(&event{at: s.now + h.tickEvery, kind: evTick, node: id, inc: h.inc})
	}
}

// deliver schedules one packet's arrival, applying the partition table
// and the fault hook. `at` is the fault-free arrival time (sender-side
// NIC serialization and propagation already included). A duplicate is a
// copy of the bytes: the receiver's host recycles each packet it runs.
func (s *Sim) deliver(at time.Duration, from, to string, pkt []byte) {
	if s.blocked[from][to] {
		s.Faults.Dropped++
		return
	}
	if s.faultFn != nil {
		a := s.faultFn(s.now, from, to, pkt)
		if a.Drop {
			s.Faults.Dropped++
			return
		}
		if a.Delay > 0 {
			s.Faults.Delayed++
			at += a.Delay
		}
		if a.Duplicate {
			s.Faults.Duplicated++
			s.push(&event{at: at + s.Model.NetDelay, kind: evDeliver, from: from, to: to, pkt: slices.Clone(pkt)})
		}
	}
	s.push(&event{at: at, kind: evDeliver, from: from, to: to, pkt: pkt})
}
