// Package replog implements the coordinator-side machinery of a
// memgest's replicated log: sequence allocation and per-entry ack
// tracking against a required quorum. Redundancy nodes that fall
// behind catch up by state transfer (MetaFetch), not log replay.
//
// Every memgest has one log per shard (Section 5.2: "Each memgest has
// a special replicated log to propagate updates generated from client
// requests within itself"). Entries commit independently — the paper
// explicitly allows higher versions to commit before lower ones — so
// the tracker has no prefix-commit constraint.
package replog

import (
	"fmt"

	"ring/internal/proto"
)

// Quorum is proof that a write's redundancy is complete: the paper's
// rule — acknowledge a write only after every redundancy update it
// owes — as a value the coordinator's commit and success replies take
// as an argument, so acknowledging early does not type-check. Only this
// package makes a valid one (Tracker.Ack, Tracker.Open, Committed,
// ChaosForgeQuorum); the zero value, which any package can write, is
// rejected by the sinks' Assert.
type Quorum struct{ held bool }

// Assert panics on the zero Quorum.
func (q Quorum) Assert() {
	if !q.held {
		panic("replog: zero Quorum: a write acknowledged without proof that its redundancy is complete")
	}
}

// Committed is the proof for acknowledging without writing, held when
// every record named is committed: a move that finds its key under the
// destination scheme names that version, an empty prefix move names none.
func Committed(recs ...*proto.MetaRecord) Quorum {
	for _, r := range recs {
		if !r.Committed {
			return Quorum{}
		}
	}
	return Quorum{held: true}
}

// ChaosForgeQuorum forges the proof for a write whose redundancy is NOT
// complete. Its only callers are the two bugs the chaos harness injects
// (core.Options.ChaosUnsafeAck, ChaosUnsafeMove): core's TestProofPins.
func ChaosForgeQuorum() Quorum { return Quorum{held: true} }

// Tracker allocates sequence numbers and counts acknowledgements until
// each entry reaches its required quorum.
type Tracker struct {
	next    proto.Seq
	pending map[proto.Seq]*entry
}

type entry struct {
	need int
	acks map[proto.NodeID]bool
}

// NewTracker creates a tracker whose first sequence is 1.
func NewTracker() *Tracker {
	return &Tracker{next: 1, pending: make(map[proto.Seq]*entry)}
}

// Next allocates the next sequence number.
func (t *Tracker) Next() proto.Seq {
	s := t.next
	t.next++
	return s
}

// Advance moves the allocator past seq. A coordinator recovering from
// disk calls this with the highest sequence its durable state (or a
// peer's fetch reply) mentions, so re-allocated sequences can never
// collide with its previous life's.
func (t *Tracker) Advance(seq proto.Seq) {
	if seq >= t.next {
		t.next = seq + 1
	}
}

// Open registers an in-flight entry requiring `need` remote acks. A
// need == 0 entry is complete: not registered, its proof returned.
func (t *Tracker) Open(seq proto.Seq, need int) (Quorum, bool) {
	if need < 0 {
		panic(fmt.Sprintf("replog: negative ack requirement %d", need))
	}
	if need == 0 {
		return Quorum{held: true}, true
	}
	if _, ok := t.pending[seq]; ok {
		panic(fmt.Sprintf("replog: seq %d opened twice", seq))
	}
	t.pending[seq] = &entry{need: need, acks: make(map[proto.NodeID]bool)}
	return Quorum{}, false
}

// Ack records an acknowledgement from a node. It returns the entry's
// proof and true exactly once: when the entry reaches its quorum.
// Duplicate acks from the same node and acks for unknown (already
// complete, cancelled or never opened) sequences are ignored.
func (t *Tracker) Ack(seq proto.Seq, from proto.NodeID) (Quorum, bool) {
	e, ok := t.pending[seq]
	if !ok || e.acks[from] {
		return Quorum{}, false
	}
	e.acks[from] = true
	if len(e.acks) < e.need {
		return Quorum{}, false
	}
	delete(t.pending, seq)
	return Quorum{held: true}, true
}

// Pending returns the number of in-flight entries.
func (t *Tracker) Pending() int { return len(t.pending) }

// Cancel drops an in-flight entry (an aborted write): late acks are ignored.
func (t *Tracker) Cancel(seq proto.Seq) { delete(t.pending, seq) }
