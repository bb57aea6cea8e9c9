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
	"sort"

	"ring/internal/proto"
)

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

// Open registers an in-flight entry requiring `need` remote acks.
// need == 0 entries are trivially complete and are not registered.
func (t *Tracker) Open(seq proto.Seq, need int) {
	if need < 0 {
		panic(fmt.Sprintf("replog: negative ack requirement %d", need))
	}
	if need == 0 {
		return
	}
	if _, ok := t.pending[seq]; ok {
		panic(fmt.Sprintf("replog: seq %d opened twice", seq))
	}
	t.pending[seq] = &entry{need: need, acks: make(map[proto.NodeID]bool)}
}

// Ack records an acknowledgement from a node. It returns true exactly
// once: when the entry reaches its quorum. Duplicate acks from the
// same node and acks for unknown (already complete or never opened)
// sequences are ignored.
func (t *Tracker) Ack(seq proto.Seq, from proto.NodeID) bool {
	e, ok := t.pending[seq]
	if !ok {
		return false
	}
	if e.acks[from] {
		return false
	}
	e.acks[from] = true
	if len(e.acks) >= e.need {
		delete(t.pending, seq)
		return true
	}
	return false
}

// Pending returns the number of in-flight entries.
func (t *Tracker) Pending() int { return len(t.pending) }

// Cancel drops an in-flight entry (e.g. the memgest was deleted).
func (t *Tracker) Cancel(seq proto.Seq) { delete(t.pending, seq) }

// PendingSeqs returns the in-flight sequences in ascending order.
func (t *Tracker) PendingSeqs() []proto.Seq {
	out := make([]proto.Seq, 0, len(t.pending))
	for s := range t.pending {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
