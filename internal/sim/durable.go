package sim

import (
	"errors"
	"math/rand"
	"sort"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/wal"
)

// This file is the simulator's disk fault plane: each node gets an
// in-memory filesystem with crash semantics (wal.MemFS) hosting a real
// durable engine (replog.Durable). Kill tears every file back to its
// synced prefix plus a torn fragment — exactly what kill -9 leaves on
// a real disk — and Restart recovers the node from what remains. The
// nemesis can additionally corrupt WAL bits (the CRC framing must
// catch it) and make fsyncs fail (the node must crash-stop) or slow
// down. Everything is driven by seeded RNGs in deterministic event
// order, so durable chaos runs replay bit-for-bit like all others.

// ErrSimDisk is the sticky fsync error injected by NemFsyncErr.
var ErrSimDisk = errors.New("sim: injected fsync failure")

// defaultSyncCost is the virtual latency charged per fsync the node's
// durable engine performed during one CPU slot (NVMe-class flush).
const defaultSyncCost = 10 * time.Microsecond

// durPlane holds the per-node simulated disks.
type durPlane struct {
	opts     replog.DurableOptions
	fs       map[proto.NodeID]*wal.MemFS
	crashRng *rand.Rand
	syncCost time.Duration
	slow     map[proto.NodeID]bool
	lastSync map[proto.NodeID]uint64
}

// EnableDurable attaches a durable store, on a fresh simulated disk,
// to every node. Must be called before any traffic; seed drives the
// crash-truncation and corruption RNG.
func (s *Sim) EnableDurable(seed int64, opts replog.DurableOptions) error {
	p := &durPlane{
		opts:     opts,
		fs:       make(map[proto.NodeID]*wal.MemFS),
		crashRng: rand.New(rand.NewSource(seed ^ 0x5d15c0de)),
		syncCost: defaultSyncCost,
		slow:     make(map[proto.NodeID]bool),
		lastSync: make(map[proto.NodeID]uint64),
	}
	ids := make([]proto.NodeID, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fsys := wal.NewMemFS()
		d, err := replog.OpenDurable(fsys, opts)
		if err != nil {
			return err
		}
		s.nodes[id].node.SetDurable(d)
		p.fs[id] = fsys
	}
	s.dur = p
	return nil
}

// DiskFS exposes a node's simulated disk (nil without EnableDurable);
// for tests.
func (s *Sim) DiskFS(id proto.NodeID) *wal.MemFS {
	if s.dur == nil {
		return nil
	}
	return s.dur.fs[id]
}

// CorruptDisk flips one random bit in the record region of node id's
// newest WAL segment, reporting whether a bit was flipped. The next
// recovery must detect it via the CRC framing.
func (s *Sim) CorruptDisk(id proto.NodeID) bool {
	if s.dur == nil {
		return false
	}
	fsys := s.dur.fs[id]
	if fsys == nil {
		return false
	}
	if !fsys.CorruptWAL(s.dur.crashRng) {
		return false
	}
	s.Faults.Corrupted++
	return true
}

// FailDisk makes node id's fsyncs fail (fail=true) or heals the disk
// (fail=false, which also clears slowness). A node whose fsync fails
// crash-stops at its next batch boundary.
func (s *Sim) FailDisk(id proto.NodeID, fail bool) {
	if s.dur == nil {
		return
	}
	if fsys := s.dur.fs[id]; fsys != nil {
		if fail {
			fsys.FailSyncs(ErrSimDisk)
		} else {
			fsys.FailSyncs(nil)
			s.dur.slow[id] = false
		}
	}
}

// SlowDisk multiplies node id's fsync latency by 10 (slow=true) until
// healed by FailDisk(id, false) or SlowDisk(id, false).
func (s *Sim) SlowDisk(id proto.NodeID, slow bool) {
	if s.dur == nil {
		return
	}
	s.dur.slow[id] = slow
}

// crashDisk applies kill -9 semantics to a node's disk: unsynced bytes
// are torn off at an rng-chosen point.
func (s *Sim) crashDisk(id proto.NodeID) {
	if s.dur == nil {
		return
	}
	if fsys := s.dur.fs[id]; fsys != nil {
		fsys.Crash(s.dur.crashRng)
		delete(s.dur.lastSync, id)
	}
}

// syncCost returns the virtual time the fsyncs of node id's last Flush
// (its group commit at the end of one CPU slot) cost.
func (s *Sim) syncCost(h *nodeHost, id proto.NodeID) time.Duration {
	if s.dur == nil || !h.node.HasDurable() || s.dur.fs[id] == nil {
		return 0
	}
	total := s.dur.fs[id].Syncs()
	delta := total - s.dur.lastSync[id]
	s.dur.lastSync[id] = total
	cost := time.Duration(delta) * s.dur.syncCost
	if s.dur.slow[id] {
		cost *= 10
	}
	return cost
}

// recoverNode builds the state machine of a restarting node: over its
// surviving disk state when the durable plane is active (falling back
// to an empty rejoin if the disk is too broken to even open), empty
// otherwise.
func (s *Sim) recoverNode(id proto.NodeID) *core.Node {
	if s.dur != nil {
		if fsys := s.dur.fs[id]; fsys != nil {
			if d, err := replog.OpenDurable(fsys, s.dur.opts); err == nil {
				s.dur.lastSync[id] = fsys.Syncs()
				return core.NewRecovered(id, s.cfg0.Clone(), s.opts, d)
			}
		}
	}
	return core.NewRejoining(id, s.cfg0.Clone(), s.opts)
}
