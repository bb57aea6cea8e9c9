package store

import (
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
	"unsafe"

	"ring/internal/metrics"
	"ring/internal/proto"
)

// EntryKey addresses one version of one key inside a memgest's
// metadata hashtable.
type EntryKey struct {
	Key     string
	Version proto.Version
}

// Less orders entry keys by key, then version: the order in which
// anything taken out of a table is put on a wire or a queue.
func (k EntryKey) Less(o EntryKey) bool {
	if k.Key != o.Key {
		return k.Key < o.Key
	}
	return k.Version < o.Version
}

// VersionRef names one version of a key across the memgests of a shard:
// which version, and the memgest whose table holds it.
type VersionRef struct {
	Version proto.Version
	Memgest proto.MemgestID
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
//
// Entries live by value in the slabs of their shard's MetaIndex: a
// *Entry is good until the entry is deleted, replaced by a Put of its
// (key, version) or dropped with its table, and the slot it points at
// is then the next new entry's (0xDB in between under Poison).
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
	// next is the slab slot, plus one, of the key's next older entry
	// (of the next free slot while this one is free); tab marks the
	// table the entry belongs to, 0 a free slot; tag is the low bits of
	// the key's hash, which spare a probe the comparison of most keys
	// that are not the one it looks for.
	next uint32
	tab  uint16
	tag  uint16
}

// EntrySize is what an entry takes in a slab.
const EntrySize = int(unsafe.Sizeof(Entry{}))

// Ref names the entry across the memgests of its shard.
func (e *Entry) Ref() VersionRef { return VersionRef{e.Rec.Version, e.Rec.Memgest} }

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

// MetaIndex is the volatile hashtable of one shard on one node: every
// key the node holds for the shard, whatever memgest a version is in,
// to the key's versions newest first. The paper keeps it beside the
// metadata hashtables and notes that "it can be reconstructed by
// combining metadata hashtables of all local memgests" (Section 5.1);
// here it is their only index, and a MetaTable is the part of it that
// belongs to one memgest, so the two cannot disagree.
//
// The index is open-addressed: a slot is the slab slot, plus one, of a
// key's newest entry, found by linear probing from the key's hash, and
// the key's entries are chained through Entry.next by falling version
// (a version put twice, in two tables, has the later put first).
// Entries are stored by value in slabs that never move; a freed slot is
// the next entry's, whichever table puts it, so a key that changes
// memgest takes no new memory. The bytes of a key are kept once per
// key, in chunks beside the slabs, never overwritten: a key string
// taken from an entry stays good for as long as anything refers to it.
// All of it is collected heap and none of it a Go map: a walk visits in
// slab order, a function of the puts and deletes before it and of
// nothing else.
type MetaIndex struct {
	// Poison is a test switch (core.PoisonPayloads): a freed slot, and
	// the bytes of a freed value, are overwritten with 0xDB, so a
	// pointer or a view kept past the free reads a wrong record and
	// not a lucky one. Set it before the first Put.
	Poison bool

	slots []uint32 // the hash index; len is zero or a power of two
	shift uint8    // 64 - log2(len(slots))
	keys  int      // slots in use: keys with at least one entry
	n     int      // entries
	tabs  []int    // by Entry.tab: entries of that table, -1 once it was dropped

	slabs [][]Entry
	room  uint32 // slots in the slabs
	cut   uint32 // of them, handed out so far, in use or freed since
	free  uint32 // the newest freed slot, plus one

	keyTail          []byte // uncut remainder of the newest key chunk
	keyLive, keyKept int    // bytes of the keys in use, and of the chunks cut for them
	backed           int    // bytes of slabs, hash index and key chunks
}

const (
	// The first slab of an index is small — most indexes of a test or
	// chaos run hold a dozen entries — the next two twice the one
	// before, and every later one fills an 8 KiB size class with the
	// allocator's header.
	slab0     = 16
	slabSteps = 3
	slabMax   = (8192 - 8) / EntrySize
	slabBase  = slab0 * (1<<slabSteps - 1) // slots in the slabs below slabMax

	// The hash index doubles when three quarters full and halves when
	// an eighth full: five to eleven bytes a key while it grows.
	minSlots = 8

	keyChunkMin = 128
	keyChunkMax = 4096
)

// metaBacked is process.meta_bytes_backed in /debug/ringvars: the
// slabs, hash indexes and key chunks of every index of the process that
// has not been emptied by a Drop, in use or free.
var metaBacked atomic.Int64

// MetaBytesBacked returns the bytes this process holds for metadata.
func MetaBytesBacked() uint64 { return uint64(metaBacked.Load()) }

func init() {
	metrics.Default.Register("process.meta_bytes_backed", metrics.GaugeFunc(func() int64 { return metaBacked.Load() }))
}

// NewMetaIndex creates an empty index; it takes no memory until the
// first Put of one of its tables.
func NewMetaIndex() *MetaIndex { return &MetaIndex{tabs: []int{0}} } // tab 0 marks a free slot

// NewTable returns an empty table whose entries are indexed by x. The
// table must be dropped before it is discarded while x lives on.
func (x *MetaIndex) NewTable() *MetaTable {
	id := slices.Index(x.tabs, -1)
	if id < 0 {
		id = len(x.tabs)
		x.tabs = append(x.tabs, -1)
	}
	x.tabs[id] = 0
	return &MetaTable{x: x, id: uint16(id)}
}

func (x *MetaIndex) account(bytes int) {
	x.backed += bytes
	metaBacked.Add(int64(bytes))
}

// hashKey is 64-bit FNV-1a.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return h
}

// home is where a probe for a key of hash h starts. The keys of one
// shard share h mod s, so the slot comes from a product's high bits.
func (x *MetaIndex) home(h uint64) uint32 { return uint32(h * 0x9E3779B97F4A7C15 >> x.shift) }

// at returns the entry in slab slot ref.
func (x *MetaIndex) at(ref uint32) *Entry {
	if ref >= slabBase {
		return &x.slabs[slabSteps+(ref-slabBase)/uint32(slabMax)][(ref-slabBase)%uint32(slabMax)]
	}
	slab := bits.Len32(ref/slab0+1) - 1
	return &x.slabs[slab][ref-slab0*(1<<slab-1)]
}

// find returns the index slot of key — the one that holds it, or the
// empty one a probe for it ends at — and the key's newest entry, or nil.
func (x *MetaIndex) find(key string, h uint64) (uint32, *Entry) {
	if len(x.slots) == 0 {
		return 0, nil
	}
	mask := uint32(len(x.slots) - 1)
	for i := x.home(h); ; i = (i + 1) & mask {
		r := x.slots[i]
		if r == 0 {
			return i, nil
		}
		if e := x.at(r - 1); e.tag == uint16(h) && e.Rec.Key == key {
			return i, e
		}
	}
}

// Highest returns the newest version of key in any table of the index
// (committed or not), which is what put uses to pick the next version
// and get uses to locate the value; nil when no table holds the key.
func (x *MetaIndex) Highest(key string) *Entry {
	_, e := x.find(key, hashKey(key))
	return e
}

// Older returns the entry of e's key that follows e, newest first, or
// nil: Highest and Older walk every version of a key.
func (x *MetaIndex) Older(e *Entry) *Entry {
	if e.next == 0 {
		return nil
	}
	return x.at(e.next - 1)
}

// Range calls fn for every entry of every table until fn returns
// false, in slab order.
func (x *MetaIndex) Range(fn func(*Entry) bool) {
	for ref := uint32(0); ref < x.cut; ref++ {
		if e := x.at(ref); e.tab != 0 && !fn(e) {
			return
		}
	}
}

// rehash gives the hash index n slots: a power of two, and more than
// there are keys.
func (x *MetaIndex) rehash(n int) {
	old := x.slots
	x.account(4 * (n - len(old)))
	x.slots, x.shift = make([]uint32, n), uint8(64-bits.TrailingZeros(uint(n)))
	mask := uint32(n - 1)
	for _, r := range old {
		if r == 0 {
			continue
		}
		i := x.home(hashKey(x.at(r - 1).Rec.Key))
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = r
	}
}

// unslot empties index slot i and moves up the keys whose probes passed
// over it.
func (x *MetaIndex) unslot(i uint32) {
	mask := uint32(len(x.slots) - 1)
	for j := i; ; {
		x.slots[i] = 0
		for {
			j = (j + 1) & mask
			r := x.slots[j]
			if r == 0 {
				return
			}
			// The key at j may move to i unless its probe starts after i.
			if home := x.home(hashKey(x.at(r - 1).Rec.Key)); (j-home)&mask >= (j-i)&mask {
				break
			}
		}
		x.slots[i], i = x.slots[j], j
	}
}

// takeSlot returns a slab slot for a new entry: the newest freed one,
// or the next of the newest slab, or the first of a new slab.
func (x *MetaIndex) takeSlot() (*Entry, uint32) {
	if r := x.free; r != 0 {
		e := x.at(r - 1)
		x.free = e.next
		return e, r - 1
	}
	if x.cut == x.room {
		size := slabMax
		if len(x.slabs) < slabSteps {
			size = slab0 << len(x.slabs)
		}
		x.slabs = append(x.slabs, make([]Entry, size))
		x.room += uint32(size)
		x.account(size * EntrySize)
	}
	x.cut++
	return x.at(x.cut - 1), x.cut - 1
}

// poisonedEntry is what a freed slot reads as under Poison.
var poisonedEntry = Entry{
	Rec: proto.MetaRecord{
		Key: "\xDB\xDB\xDB\xDB\xDB\xDB\xDB\xDB", Version: 0xDBDBDBDBDBDBDBDB, Memgest: 0xDBDBDBDB,
		Committed: true, Tombstone: true, Length: 0xDBDBDBDB, LocBlock: 0xDBDBDBDB, LocOff: 0xDBDBDBDB,
	},
	Seq: 0xDBDBDBDBDBDBDBDB,
}

// freeSlot takes back the slot of an entry no chain holds any more.
func (x *MetaIndex) freeSlot(e *Entry, ref uint32) {
	*e = Entry{}
	if x.Poison {
		*e = poisonedEntry
	}
	e.next, x.free = x.free, ref+1
}

// keep copies the bytes of a new key beside the slabs.
func (x *MetaIndex) keep(key string) string {
	if len(key) == 0 {
		return ""
	}
	if len(key) > len(x.keyTail) {
		size := max(len(key), min(max(x.keyKept, keyChunkMin), keyChunkMax))
		x.keyTail = make([]byte, size)
		x.keyKept += size
		x.account(size)
	}
	n := copy(x.keyTail, key)
	kept := unsafe.String(&x.keyTail[0], n)
	x.keyTail = x.keyTail[n:]
	return kept
}

// fit is called after keys have gone: it halves a hash index an eighth
// full, and copies the keys in use to new chunks when those are under
// half of what the chunks hold (the old ones are the collector's once
// the last string into them is).
func (x *MetaIndex) fit() {
	for len(x.slots) > minSlots && x.keys*8 < len(x.slots) {
		x.rehash(len(x.slots) / 2)
	}
	if x.keyKept <= 2*x.keyLive+2*keyChunkMax {
		return
	}
	x.account(-x.keyKept)
	x.keyKept, x.keyTail = 0, nil
	for _, r := range x.slots {
		if r == 0 {
			continue
		}
		e := x.at(r - 1)
		for key := x.keep(e.Rec.Key); e != nil; e = x.Older(e) {
			e.Rec.Key = key
		}
	}
}

// MetaTable is the metadata hashtable of one memgest shard: the
// entries of one memgest in the shard's MetaIndex. The coordinator's
// copy is authoritative; replicas and parity nodes hold replicas
// maintained through the replicated log. The table of a Rep memgest
// also owns the values of its entries (Hold): removing an entry frees
// its value, and Drop gives all of them back at once.
type MetaTable struct {
	x    *MetaIndex
	id   uint16 // the mark the table's entries carry (Entry.tab)
	vals *arena // the held values; nil until the first
}

// NewMetaTable creates an empty table with an index of its own.
func NewMetaTable() *MetaTable { return NewMetaIndex().NewTable() }

// Put inserts a copy of *e, or replaces with it the table's entry of
// the same key and version, and returns the entry now in the table
// (write-ahead: entries are inserted before they are committed). A
// replaced entry's value is freed; the new one holds none until Hold.
func (t *MetaTable) Put(e *Entry) *Entry {
	x, key, ver := t.x, e.Rec.Key, e.Rec.Version
	h := hashKey(key)
	i, head := x.find(key, h)
	if head != nil {
		key = head.Rec.Key
	} else {
		if (x.keys+1)*4 > len(x.slots)*3 {
			x.rehash(max(minSlots, 2*len(x.slots)))
			i, _ = x.find(key, h)
		}
		key = x.keep(key)
		x.keys++
		x.keyLive += len(key)
	}
	link := &x.slots[i]
	for *link != 0 && x.at(*link-1).Rec.Version > ver {
		link = &x.at(*link - 1).next
	}
	stored, next := (*Entry)(nil), *link
	for r := *link; r != 0 && stored == nil && x.at(r-1).Rec.Version == ver; r = x.at(r - 1).next {
		if old := x.at(r - 1); old == e {
			return old // not e: the parameter does not escape
		} else if old.tab == t.id {
			t.release(old)
			stored, next = old, old.next
		}
	}
	if stored == nil {
		var ref uint32
		stored, ref = x.takeSlot()
		*link = ref + 1
		x.tabs[t.id]++
		x.n++
	}
	*stored = *e
	stored.Rec.Key, stored.slot, stored.next, stored.tab, stored.tag = key, nil, next, t.id, uint16(h)
	return stored
}

// Hold makes the table keep a copy of value as the bytes of e, an entry
// of this table, in place of any it held before. This is the one copy a
// Rep node makes of a value: value may be a view into a packet, but not
// of bytes this table holds (freeing e's old ones may move them).
func (t *MetaTable) Hold(e *Entry, value []byte) {
	if e.tab != t.id {
		panic("store: Hold of an entry that is not in the table (Put returns the one that is)")
	}
	t.release(e)
	if len(value) == 0 {
		return
	}
	if t.vals == nil {
		t.vals = newArena(t.x.Poison)
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

// MetaBytes returns what the table's entries take beside their values:
// their slab slots, and of the hash index and the keys of the shard the
// part that is theirs by count. The tables of an index add up to its
// slots in use, its hash index and its keys, to the byte.
func (t *MetaTable) MetaBytes() uint64 {
	x, n, below := t.x, t.Len(), 0
	if n == 0 {
		return 0
	}
	for _, m := range x.tabs[:t.id] {
		below += max(m, 0)
	}
	shared := 4*len(x.slots) + x.keyLive
	return uint64(n*EntrySize + shared*(below+n)/x.n - shared*below/x.n)
}

// Drop ends the table: the memory of its values goes back for other
// tables of the process to use, the slots of its entries to the other
// tables of its index, and with the last entry of an index its slabs,
// keys and hash index to the collector. A node calls it on a table it
// discards while it lives on; the tables of a node discarded whole are
// found by the collector.
func (t *MetaTable) Drop() {
	if t.vals != nil {
		t.vals.drop()
		t.vals = nil
	}
	x := t.x
	for ref := uint32(0); t.Len() > 0; ref++ {
		if e := x.at(ref); e.tab == t.id {
			e.slot = nil // gone with the arena
			t.Delete(e.Rec.Key, e.Rec.Version)
		}
	}
	if x.tabs[t.id] = -1; x.n == 0 {
		x.account(-x.backed)
		*x = MetaIndex{Poison: x.Poison, tabs: x.tabs}
	}
}

// Get returns the entry for (key, version), or nil.
func (t *MetaTable) Get(key string, v proto.Version) *Entry {
	for e := t.x.Highest(key); e != nil && e.Rec.Version >= v; e = t.x.Older(e) {
		if e.Rec.Version == v && e.tab == t.id {
			return e
		}
	}
	return nil
}

// Delete removes (key, version) and returns a copy of the removed
// entry, if there was one; the value it held is freed.
func (t *MetaTable) Delete(key string, v proto.Version) (Entry, bool) {
	x := t.x
	i, e := x.find(key, hashKey(key))
	if e == nil {
		return Entry{}, false
	}
	link := &x.slots[i]
	for e.Rec.Version != v || e.tab != t.id {
		if link = &e.next; *link == 0 || e.Rec.Version < v {
			return Entry{}, false
		}
		e = x.at(*link - 1)
	}
	t.release(e)
	removed, ref := *e, *link-1
	*link = e.next
	x.freeSlot(e, ref)
	x.tabs[t.id]--
	if x.n--; x.slots[i] == 0 {
		x.unslot(i)
		x.keys--
		x.keyLive -= len(key)
		x.fit()
	}
	return removed, true
}

// Len returns the number of entries.
func (t *MetaTable) Len() int { return max(t.x.tabs[t.id], 0) }

// RecordsSince serializes the replicated part of every entry carried
// by a log sequence after since (all of them after 0), sorted by key
// then version for deterministic wire contents. Entries with Seq == 0
// (installed by recovery, original sequence unknown) are always
// included — the requester may be missing them regardless of its delta
// floor.
func (t *MetaTable) RecordsSince(since proto.Seq) []proto.MetaRecord {
	out := make([]proto.MetaRecord, 0, t.Len())
	t.Range(func(e *Entry) bool {
		if e.Seq == 0 || e.Seq > since {
			out = append(out, e.Rec)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		return EntryKey{out[i].Key, out[i].Version}.Less(EntryKey{out[j].Key, out[j].Version})
	})
	return out
}

// MaxSeq returns the highest log sequence recorded in the table.
func (t *MetaTable) MaxSeq() proto.Seq {
	var max proto.Seq
	t.Range(func(e *Entry) bool {
		if e.Seq > max {
			max = e.Seq
		}
		return true
	})
	return max
}

// Range calls fn for every entry until fn returns false, in slab order:
// a walk of the index that skips the other tables' entries.
func (t *MetaTable) Range(fn func(*Entry) bool) {
	t.x.Range(func(e *Entry) bool { return e.tab != t.id || fn(e) })
}
