package metrics

import "time"

// TraceKeyLen bounds the key bytes preserved per trace entry. Longer
// keys are truncated — the ring exists to answer "what was this node
// just doing", not to be a store.
const TraceKeyLen = 32

// TraceOp classifies a traced operation.
type TraceOp uint8

const (
	TraceNone TraceOp = iota
	TracePut
	TraceGet
	TraceDelete
	TraceMove
)

func (o TraceOp) String() string {
	switch o {
	case TracePut:
		return "put"
	case TraceGet:
		return "get"
	case TraceDelete:
		return "delete"
	case TraceMove:
		return "move"
	}
	return "none"
}

// TraceEntry is one recorded operation. All fields are fixed-size so
// recording copies bytes into preallocated slots and never allocates.
type TraceEntry struct {
	// Seq is the global record sequence (monotone; used to order and
	// to detect how much history the ring has dropped).
	Seq uint64
	// At is the node-local time the operation completed.
	At time.Duration
	// Dur is the commit/serve latency attributed to the operation
	// (zero for operations answered within a single event).
	Dur time.Duration
	// Op, Status, Memgest, Version describe the operation.
	Op      TraceOp
	Status  uint8
	Memgest uint32
	Version uint64
	// Key holds the first KeyLen bytes of the key.
	Key    [TraceKeyLen]byte
	KeyLen uint8
}

// KeyString returns the (possibly truncated) key.
func (e *TraceEntry) KeyString() string { return string(e.Key[:e.KeyLen]) }

// TraceRing is a fixed-capacity ring buffer of per-op trace entries.
//
// It is deliberately NOT internally synchronized: the intended writer
// is a node state machine whose events are already serialized by its
// runner, and snapshots are taken through the same runner lock
// (Runner.Inspect). Keeping the ring lock- and atomic-free makes
// Record a plain struct store — ~10ns and zero allocations — which is
// what lets every operation be traced unconditionally.
type TraceRing struct {
	entries []TraceEntry
	next    uint64
}

// NewTraceRing creates a ring holding the n most recent entries
// (n <= 0 selects 256; n is rounded up to a power of two).
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = 256
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &TraceRing{entries: make([]TraceEntry, size)}
}

// Record appends one entry, overwriting the oldest once full.
func (r *TraceRing) Record(op TraceOp, key string, memgest uint32, version uint64, status uint8, at, dur time.Duration) {
	e := &r.entries[r.next&uint64(len(r.entries)-1)]
	e.Seq = r.next
	e.At = at
	e.Dur = dur
	e.Op = op
	e.Status = status
	e.Memgest = memgest
	e.Version = version
	n := copy(e.Key[:], key)
	e.KeyLen = uint8(n)
	r.next++
}

// Len returns how many entries are currently held.
func (r *TraceRing) Len() int {
	if r.next < uint64(len(r.entries)) {
		return int(r.next)
	}
	return len(r.entries)
}

// Recorded returns the total number of entries ever recorded.
func (r *TraceRing) Recorded() uint64 { return r.next }

// Last copies out the most recent n entries, oldest first. It must be
// called under the same exclusion as Record (see the type doc).
func (r *TraceRing) Last(n int) []TraceEntry {
	held := r.Len()
	if n <= 0 || n > held {
		n = held
	}
	out := make([]TraceEntry, n)
	for i := 0; i < n; i++ {
		seq := r.next - uint64(n-i)
		out[i] = r.entries[seq&uint64(len(r.entries)-1)]
	}
	return out
}
