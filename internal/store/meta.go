package store

import (
	"sort"
	"unsafe"

	"ring/internal/proto"
)

// EntryKey addresses one version of one key inside a memgest's
// metadata hashtable.
type EntryKey struct {
	Key     string
	Version proto.Version
}

// Less orders entry keys by key, then version: the order in which
// anything taken out of a table (a Go map) is put on a wire or a queue.
func (k EntryKey) Less(o EntryKey) bool {
	if k.Key != o.Key {
		return k.Key < o.Key
	}
	return k.Version < o.Version
}

// Entry is one metadata hashtable record:
//
//	key,version -> data, length, committed, requests
//
// The committed flag and parked requests are the volatile part of the
// paper's scheme; Rec carries everything that is replicated. Where the
// entry's bytes are is one of two places, and one question answers
// both: an SRS value sits in its coordinator's BlockHeap at Extent (Rec
// says where; the parity nodes' copies of the entry have none), a Rep
// value in a slot of the table that indexes the entry, put there by
// Hold and read with Bytes.
type Entry struct {
	Rec proto.MetaRecord
	// Seq is the replicated-log sequence that carried this entry.
	Seq proto.Seq
	// slot is the Rep value held for this entry, n bytes in the table's
	// arena; nil when the table holds none. at is the entry's place
	// among the owners of the slot's chunk.
	slot *byte
	n    uint32
	at   uint32
	// parked exists only while requests wait for the entry to commit.
	parked *Parked
}

// Extent locates an SRS entry's bytes in the block heap; its Len is
// zero when the entry has none (a tombstone, an empty value).
func (e *Entry) Extent() Extent {
	if e.Rec.Tombstone {
		return Extent{}
	}
	return Extent{Block: e.Rec.LocBlock, Off: e.Rec.LocOff, Len: e.Rec.Length}
}

// Bytes returns the Rep value the entry's table holds for it, and
// whether it holds it. An entry that carries no bytes (a tombstone, an
// empty value) is held, with nil bytes; an entry that recovery
// installed ahead of its bytes is not, until Hold. The bytes are a view
// of the slot, good until the table next frees a value: Delete, a
// replacing Put, Hold and Drop free this entry's slot, and a free of any
// entry's may move the values of others to another chunk (the arena's
// evacuate). So a caller copies them before the table changes, and
// always before it returns.
func (e *Entry) Bytes() (b []byte, held bool) {
	if e.slot != nil {
		return unsafe.Slice(e.slot, e.n), true
	}
	return nil, e.Rec.Length == 0 || e.Rec.Tombstone
}

// Held is the second result of Bytes.
func (e *Entry) Held() bool {
	_, held := e.Bytes()
	return held
}

// Parked is what waits for an uncommitted entry to commit.
type Parked struct {
	// Gets are get requests answered with this exact version at commit
	// time (client address + request id), per Figure 5 of the paper.
	Gets []Waiter
	// Moves are move requests waiting for durability.
	Moves []MoveWaiter
}

// Park returns the entry's parked requests, to append to.
func (e *Entry) Park() *Parked {
	if e.parked == nil {
		e.parked = new(Parked)
	}
	return e.parked
}

// TakeParked detaches and returns what is parked on the entry; nothing
// is once it has committed.
func (e *Entry) TakeParked() Parked {
	p := e.parked
	e.parked = nil
	if p == nil {
		return Parked{}
	}
	return *p
}

// HasParked reports whether any request waits on the entry.
func (e *Entry) HasParked() bool { return e.parked != nil }

// Waiter identifies a parked get reply.
type Waiter struct {
	Client string
	Req    proto.ReqID
}

// MoveWaiter identifies a parked move: the request re-enters the
// coordinator's move path once the version it waits on is durable.
type MoveWaiter struct {
	Client string
	Move   *proto.Move
}

// MetaTable is the metadata hashtable of one memgest shard. The
// coordinator's copy is authoritative; replicas and parity nodes hold
// replicas maintained through the replicated log. The table of a Rep
// memgest also owns the values of its entries (Hold): removing an
// entry frees its value, and Drop gives all of them back at once.
type MetaTable struct {
	entries map[EntryKey]*Entry
	bytes   uint64 // approximate serialized size, for recovery sizing
	vals    *arena // the held values; nil until the first
	// Poison is a test switch (core.PoisonPayloads): the bytes of a
	// freed value are overwritten with 0xDB, so a view kept past the
	// free is a wrong value and not a lucky one.
	Poison bool
}

// NewMetaTable creates an empty table.
func NewMetaTable() *MetaTable {
	return &MetaTable{entries: make(map[EntryKey]*Entry)}
}

// recSize approximates the wire size of a metadata record.
func recSize(rec *proto.MetaRecord) uint64 {
	return uint64(len(rec.Key)) + 26
}

// Put inserts or replaces an entry (write-ahead: entries are inserted
// before they are committed). A replaced entry's value is freed.
func (t *MetaTable) Put(e *Entry) {
	k := EntryKey{e.Rec.Key, e.Rec.Version}
	if old, ok := t.entries[k]; ok {
		t.bytes -= recSize(&old.Rec)
		if old != e {
			t.release(old)
		}
	}
	t.entries[k] = e
	t.bytes += recSize(&e.Rec)
}

// Hold makes the table keep a copy of value as the bytes of e, an entry
// of this table, in place of any it held before. This is the one copy a
// Rep node makes of a value: value may be a view into a packet, but not
// of bytes this table holds (freeing e's old ones may move them).
func (t *MetaTable) Hold(e *Entry, value []byte) {
	t.release(e)
	if len(value) == 0 {
		return
	}
	if t.vals == nil {
		t.vals = newArena(t.Poison)
	}
	copy(t.vals.alloc(len(value), e), value)
}

func (t *MetaTable) release(e *Entry) {
	if e.slot != nil {
		t.vals.free(e)
	}
}

// ValueBytes returns the bytes of the values the table holds and the
// bytes of memory behind them: whole chunks, of which under
// evacuateAt bytes are freed slots waiting for the next value of their
// size.
func (t *MetaTable) ValueBytes() (used, backed uint64) {
	if t.vals == nil {
		return 0, 0
	}
	return t.vals.used, t.vals.backed()
}

// ValueMoves returns what the table has done so far to give the memory
// of freed values back while it lives; Drop forgets it.
func (t *MetaTable) ValueMoves() ValueMoves {
	if t.vals == nil {
		return ValueMoves{}
	}
	return t.vals.moved
}

// Drop empties the table and gives the memory of its values back for
// other tables of the process to use. A node calls it on a table it
// discards while it lives on; the tables of a node discarded whole are
// found by the collector.
func (t *MetaTable) Drop() {
	if t.vals != nil {
		t.vals.drop()
		t.vals = nil
	}
	clear(t.entries)
	t.bytes = 0
}

// Get returns the entry for (key, version), or nil.
func (t *MetaTable) Get(key string, v proto.Version) *Entry {
	return t.entries[EntryKey{key, v}]
}

// Delete removes (key, version) and returns the removed entry, if any;
// the value it held is freed.
func (t *MetaTable) Delete(key string, v proto.Version) *Entry {
	k := EntryKey{key, v}
	e, ok := t.entries[k]
	if !ok {
		return nil
	}
	delete(t.entries, k)
	t.bytes -= recSize(&e.Rec)
	t.release(e)
	return e
}

// Len returns the number of entries.
func (t *MetaTable) Len() int { return len(t.entries) }

// SizeBytes returns the approximate serialized size of the table; this
// is the "metadata size" axis of the recovery experiment (Figure 12).
func (t *MetaTable) SizeBytes() uint64 { return t.bytes }

// Records serializes every entry's replicated part, sorted by key then
// version for deterministic wire contents.
func (t *MetaTable) Records() []proto.MetaRecord {
	out := make([]proto.MetaRecord, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e.Rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// RecordsSince serializes the replicated part of every entry carried
// by a log sequence after since, sorted by key then version. Entries
// with Seq == 0 (installed by recovery, original sequence unknown) are
// always included — the requester may be missing them regardless of
// its delta floor. RecordsSince(0) is equivalent to Records().
func (t *MetaTable) RecordsSince(since proto.Seq) []proto.MetaRecord {
	out := make([]proto.MetaRecord, 0, len(t.entries))
	for _, e := range t.entries {
		if e.Seq == 0 || e.Seq > since {
			out = append(out, e.Rec)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// MaxSeq returns the highest log sequence recorded in the table.
func (t *MetaTable) MaxSeq() proto.Seq {
	var max proto.Seq
	for _, e := range t.entries {
		if e.Seq > max {
			max = e.Seq
		}
	}
	return max
}

// Range calls fn for every entry until fn returns false.
func (t *MetaTable) Range(fn func(*Entry) bool) {
	for _, e := range t.entries {
		if !fn(e) {
			return
		}
	}
}

// VersionRef points from the volatile hashtable into a memgest.
type VersionRef struct {
	Version proto.Version
	Memgest proto.MemgestID
}

// VolatileIndex is the per-coordinator volatile hashtable mapping each
// key to its versions across all memgests, newest first. It is not
// replicated: after a failure it is rebuilt from the union of the
// memgests' metadata hashtables (Section 5.1).
type VolatileIndex struct {
	m map[string][]VersionRef
}

// NewVolatileIndex creates an empty index.
func NewVolatileIndex() *VolatileIndex {
	return &VolatileIndex{m: make(map[string][]VersionRef)}
}

// Add records that (key, version) lives in memgest mg. Versions are
// kept sorted descending; duplicate versions replace the memgest ref
// (a key's version is globally unique across memgests by design).
func (v *VolatileIndex) Add(key string, ver proto.Version, mg proto.MemgestID) {
	refs := v.m[key]
	i := sort.Search(len(refs), func(i int) bool { return refs[i].Version <= ver })
	if i < len(refs) && refs[i].Version == ver {
		refs[i].Memgest = mg
		v.m[key] = refs
		return
	}
	refs = append(refs, VersionRef{})
	copy(refs[i+1:], refs[i:])
	refs[i] = VersionRef{ver, mg}
	v.m[key] = refs
}

// Remove drops (key, version) from the index.
func (v *VolatileIndex) Remove(key string, ver proto.Version) {
	refs := v.m[key]
	i := sort.Search(len(refs), func(i int) bool { return refs[i].Version <= ver })
	if i >= len(refs) || refs[i].Version != ver {
		return
	}
	refs = append(refs[:i], refs[i+1:]...)
	if len(refs) == 0 {
		delete(v.m, key)
	} else {
		v.m[key] = refs
	}
}

// Highest returns the newest version ref for key (committed or not),
// which is what put uses to pick the next version and get uses to
// locate the value.
func (v *VolatileIndex) Highest(key string) (VersionRef, bool) {
	refs := v.m[key]
	if len(refs) == 0 {
		return VersionRef{}, false
	}
	return refs[0], true
}

// All returns every version of key, newest first (a copy).
func (v *VolatileIndex) All(key string) []VersionRef {
	return append([]VersionRef(nil), v.m[key]...)
}

// Older returns every version of key strictly older than ver.
func (v *VolatileIndex) Older(key string, ver proto.Version) []VersionRef {
	refs := v.m[key]
	i := sort.Search(len(refs), func(i int) bool { return refs[i].Version <= ver })
	// refs[i] may equal ver; older entries start after it.
	for i < len(refs) && refs[i].Version == ver {
		i++
	}
	return append([]VersionRef(nil), refs[i:]...)
}

// Keys returns the number of distinct keys.
func (v *VolatileIndex) Keys() int { return len(v.m) }

// EachKey calls fn for every key in the index until fn returns false.
// Iteration order is unspecified (map order); callers that need
// determinism must collect and sort.
func (v *VolatileIndex) EachKey(fn func(key string) bool) {
	for k := range v.m {
		if !fn(k) {
			return
		}
	}
}

// Clear empties the index (used before a rebuild).
func (v *VolatileIndex) Clear() {
	v.m = make(map[string][]VersionRef)
}

// RebuildFrom reconstructs the index from metadata tables, keyed by
// their memgest IDs — the recovery path of Section 5.1: "It can be
// reconstructed by combining metadata hashtables of all local
// memgests."
func (v *VolatileIndex) RebuildFrom(tables map[proto.MemgestID]*MetaTable) {
	v.Clear()
	for mg, t := range tables {
		t.Range(func(e *Entry) bool {
			v.Add(e.Rec.Key, e.Rec.Version, mg)
			return true
		})
	}
}
