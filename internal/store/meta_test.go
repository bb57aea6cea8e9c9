package store

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"ring/internal/proto"
)

func rec(key string, v proto.Version, mg proto.MemgestID, committed bool) proto.MetaRecord {
	return proto.MetaRecord{Key: key, Version: v, Memgest: mg, Committed: committed}
}

func TestMetaTable(t *testing.T) {
	mt := NewMetaTable()
	mt.Put(&Entry{Rec: rec("a", 1, 1, false)})
	mt.Put(&Entry{Rec: rec("a", 2, 1, true)})
	mt.Put(&Entry{Rec: rec("b", 1, 1, true)})
	if mt.Len() != 3 {
		t.Fatalf("Len = %d", mt.Len())
	}
	if e := mt.Get("a", 2); e == nil || !e.Rec.Committed {
		t.Fatal("Get(a,2) wrong")
	}
	if mt.Get("a", 3) != nil {
		t.Fatal("Get of absent version")
	}
	// A replacing Put keeps one entry, at the place of the old one.
	was := mt.Get("a", 2)
	if got := mt.Put(&Entry{Rec: rec("a", 2, 1, false)}); got != was || got.Rec.Committed || mt.Len() != 3 {
		t.Fatalf("replacing Put returned %p (%+v) for the entry at %p, Len %d", got, got.Rec, was, mt.Len())
	}
	// So does a Put of the stored entry itself, which changes nothing.
	if got := mt.Put(was); got != was || mt.Len() != 3 {
		t.Fatal("Put of the stored entry moved it")
	}
	recs := mt.RecordsSince(0)
	if len(recs) != 3 || recs[0].Key != "a" || recs[0].Version != 1 || recs[2].Key != "b" {
		t.Fatalf("Records order: %+v", recs)
	}
	if e, ok := mt.Delete("a", 1); !ok || e.Rec.Key != "a" || e.Rec.Version != 1 || mt.Len() != 2 {
		t.Fatal("Delete failed")
	}
	if _, ok := mt.Delete("a", 1); ok {
		t.Fatal("second Delete returned entry")
	}
	n := 0
	mt.Range(func(*Entry) bool { n++; return true })
	if n != 2 {
		t.Fatalf("Range visited %d", n)
	}
	n = 0
	mt.Range(func(*Entry) bool { n++; return false })
	if n != 1 {
		t.Fatal("Range early stop failed")
	}
}

// TestMetaIndexChainsAcrossTables: the index of a shard is the paper's
// volatile hashtable. A key's versions are one chain whatever table
// each is in, newest first, and a table that is dropped takes its
// entries out of it: the index cannot name what no table holds.
func TestMetaIndexChainsAcrossTables(t *testing.T) {
	x := NewMetaIndex()
	rep, srs := x.NewTable(), x.NewTable()
	rep.Put(&Entry{Rec: rec("k", 1, 10, true)})
	srs.Put(&Entry{Rec: rec("k", 3, 11, false)})
	rep.Put(&Entry{Rec: rec("k", 2, 10, true)})
	rep.Put(&Entry{Rec: rec("other", 5, 10, true)})
	var got []VersionRef
	for e := x.Highest("k"); e != nil; e = x.Older(e) {
		got = append(got, e.Ref())
	}
	if want := []VersionRef{{3, 11}, {2, 10}, {1, 10}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("versions of k: %v, want %v", got, want)
	}
	if x.Highest("absent") != nil {
		t.Fatal("Highest of an absent key")
	}
	if rep.Get("k", 3) != nil || srs.Get("k", 3) == nil || srs.Get("k", 2) != nil {
		t.Fatal("a table answers for another table's entry")
	}
	if _, ok := rep.Delete("k", 3); ok {
		t.Fatal("a table deleted another table's entry")
	}
	// A version put twice, in two tables (a move that was aborted and
	// ran again elsewhere): the later put is found first.
	srs.Put(&Entry{Rec: rec("k", 2, 11, false)})
	if e := x.Older(x.Highest("k")); e.Ref() != (VersionRef{2, 11}) || x.Older(e).Ref() != (VersionRef{2, 10}) {
		t.Fatalf("after a second put of v2: %v then %v", e.Ref(), x.Older(e).Ref())
	}
	srs.Drop()
	if e := x.Highest("k"); e == nil || e.Ref() != (VersionRef{2, 10}) || x.Older(e).Ref() != (VersionRef{1, 10}) || x.n != 3 || srs.Len() != 0 {
		t.Fatalf("after dropping the newer table: highest %+v, %d entries", e, x.n)
	}
	// The last entry of an index takes the slabs with it, and a new table
	// takes the mark of a dropped one.
	rep.Drop()
	if x.n != 0 || x.slabs != nil || x.slots != nil || x.backed != 0 {
		t.Fatalf("an index with no entry left holds %d bytes", x.backed)
	}
	again := x.NewTable()
	if e := again.Put(&Entry{Rec: rec("k", 1, 11, true)}); x.Highest("k") != e || again.id != rep.id || len(x.tabs) != 3 {
		t.Fatalf("the table made after two were dropped has mark %d of %d", again.id, len(x.tabs)-1)
	}
}

// TestKeyHashIsFNV1a: the shard of a key is a wire-visible fact.
func TestKeyHashIsFNV1a(t *testing.T) {
	for _, k := range []string{"", "a", "key-00000017", strings.Repeat("\xff\x00", 40)} {
		h := fnv.New64a()
		h.Write([]byte(k))
		if KeyHash(k) != h.Sum64() {
			t.Fatalf("KeyHash(%q) = %x, FNV-1a says %x", k, KeyHash(k), h.Sum64())
		}
	}
}

// FuzzMetaIndexModel drives three poisoned tables on one index and
// three maps with the same fuzzer-chosen stream of puts (new versions,
// replacing puts, the same version in two tables), deletes, table
// drops, bursts of new keys and of deletes that cut slabs and key
// chunks and give them back, and rehashes to a size the fuzzer picks —
// so growth, shrinking, slot reuse and backward-shift deletion happen
// at any fill, not only at their thresholds. After every step each
// table must hold exactly its map (Len, Range, Get, Records,
// RecordsSince, MaxSeq), every key's chain must be its versions over
// all three tables newest first with the later put first among equals,
// a freed slot must be taken before a slab is cut, a pointer kept past a delete must read 0xDB, and the
// books (entries, keys, key bytes, bytes backed, MetaBytes) must be
// exact.
func FuzzMetaIndexModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 1, 1, 2, 0, 2, 2, 3, 2, 0, 1, 0, 1, 1, 1, 3, 1, 0, 4})
	f.Add([]byte{5, 0, 60, 6, 0, 0, 40, 5, 1, 90, 4, 2, 7, 6, 1, 0, 90, 3, 0})
	f.Add(bytes.Repeat([]byte{0, 7, 3, 1, 1, 7, 3, 2, 2, 7, 3, 0, 2, 7, 3, 0, 1, 7, 2}, 8))
	f.Add([]byte{0, 0, 23, 0, 9, 1, 1, 23, 1, 8, 3, 0, 23, 0, 3, 1, 23, 1}) // the empty key
	f.Add([]byte{5, 0, 255, 5, 1, 255, 5, 2, 255, 4, 0, 9, 6, 0, 0, 255, 6, 1, 0, 255, 4, 0, 0, 3, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		arg := func() int {
			if len(ops) == 0 {
				return 0
			}
			v := ops[0]
			ops = ops[1:]
			return int(v)
		}
		type held struct {
			rec   proto.MetaRecord
			seq   proto.Seq
			stamp int // when the entry took its place in the chain
		}
		x := NewMetaIndex()
		x.Poison = true
		tables := [3]*MetaTable{x.NewTable(), x.NewTable(), x.NewTable()}
		models := [3]map[EntryKey]held{{}, {}, {}}
		key := func(a int) string { // of three lengths, and the empty one
			if a%24 == 23 {
				return ""
			}
			return fmt.Sprintf("k%d%s", a%24, strings.Repeat("-", a%3*9))
		}
		burst := func(j int) string { return fmt.Sprintf("burst-%04d%s", j, strings.Repeat("+", 180)) }
		stamp := 0
		put := func(i int, k string, v proto.Version, seq proto.Seq) {
			tb, m := tables[i], models[i]
			ek := EntryKey{k, v}
			in := Entry{Rec: proto.MetaRecord{Key: k, Version: v, Memgest: proto.MemgestID(i + 1), Committed: seq%2 == 0, Length: uint32(seq)}, Seq: seq}
			old, replaces := m[ek]
			cut, free, was := x.cut, x.free, tb.Get(k, v)
			e := tb.Put(&in)
			switch {
			case e == nil || e.Rec != in.Rec || e.Seq != seq || e.tab != tb.id || tb.Get(k, v) != e:
				t.Fatalf("Put(%v) into table %d stored %+v", ek, i, e)
			case replaces && (e != was || x.cut != cut || x.free != free):
				t.Fatalf("a replacing Put(%v) moved the entry or took a slot", ek)
			case !replaces && free != 0 && x.cut != cut:
				t.Fatalf("Put(%v) cut a slot while freed ones wait", ek)
			}
			stamp++
			h := held{rec: in.Rec, seq: seq, stamp: stamp}
			if replaces {
				h.stamp = old.stamp
			}
			m[ek] = h
		}
		del := func(i int, k string, v proto.Version) {
			tb, m := tables[i], models[i]
			ek := EntryKey{k, v}
			stale := tb.Get(k, v)
			got, ok := tb.Delete(k, v)
			want, had := m[ek]
			if ok != had || ok && (got.Rec != want.rec || got.Seq != want.seq) {
				t.Fatalf("Delete(%v) from table %d returned %+v, %v; the model has %+v, %v", ek, i, got, ok, want, had)
			}
			if ok && (stale.Rec.Version != 0xDBDBDBDBDBDBDBDB || stale.tab != 0 || stale.Rec.Key == k) {
				t.Fatalf("a pointer kept past Delete(%v) reads %+v, want poison", ek, stale)
			}
			delete(m, ek)
		}
		check := func(step int) {
			entries, perKey := 0, map[string][]held{}
			for i, tb := range tables {
				m := models[i]
				entries += len(m)
				if tb.Len() != len(m) {
					t.Fatalf("step %d: table %d counts %d entries, the model %d", step, i, tb.Len(), len(m))
				}
				seen := 0
				var maxSeq proto.Seq
				tb.Range(func(e *Entry) bool {
					seen++
					h, ok := m[EntryKey{e.Rec.Key, e.Rec.Version}]
					if !ok || e.Rec != h.rec || e.Seq != h.seq || tb.Get(e.Rec.Key, e.Rec.Version) != e {
						t.Fatalf("step %d: table %d ranges over %+v, the model has %+v (%v)", step, i, e, h, ok)
					}
					return true
				})
				var all, since []proto.MetaRecord
				for ek, h := range m {
					perKey[ek.Key] = append(perKey[ek.Key], h)
					maxSeq = max(maxSeq, h.seq)
					all = append(all, h.rec)
					if h.seq == 0 || h.seq > 100 {
						since = append(since, h.rec)
					}
				}
				for _, recs := range [][]proto.MetaRecord{all, since} {
					sort.Slice(recs, func(a, b int) bool {
						return EntryKey{recs[a].Key, recs[a].Version}.Less(EntryKey{recs[b].Key, recs[b].Version})
					})
				}
				if seen != len(m) || tb.MaxSeq() != maxSeq || fmt.Sprint(tb.RecordsSince(0)) != fmt.Sprint(all) || fmt.Sprint(tb.RecordsSince(100)) != fmt.Sprint(since) {
					t.Fatalf("step %d: table %d: Range met %d of %d, MaxSeq %d of %d, or Records differ", step, i, seen, len(m), tb.MaxSeq(), maxSeq)
				}
			}
			keyBytes := 0
			for k, hs := range perKey {
				keyBytes += len(k)
				sort.Slice(hs, func(a, b int) bool {
					if hs[a].rec.Version != hs[b].rec.Version {
						return hs[a].rec.Version > hs[b].rec.Version
					}
					return hs[a].stamp > hs[b].stamp
				})
				e := x.Highest(k)
				for _, h := range hs {
					if e == nil || e.Rec != h.rec {
						t.Fatalf("step %d: the chain of %q has %+v where the model has %+v", step, k, e, h.rec)
					}
					e = x.Older(e)
				}
				if e != nil {
					t.Fatalf("step %d: the chain of %q goes on to %+v", step, k, e.Rec)
				}
			}
			if x.Highest("absent") != nil {
				t.Fatalf("step %d: Highest of an absent key", step)
			}
			if x.keys != len(perKey) || x.n != entries || x.keyLive != keyBytes {
				t.Fatalf("step %d: the index counts %d keys, %d entries, %d key bytes; the model has %d, %d, %d",
					step, x.keys, x.n, x.keyLive, len(perKey), entries, keyBytes)
			}
			backed := 4*len(x.slots) + x.keyKept
			for _, slab := range x.slabs {
				backed += len(slab) * EntrySize
			}
			if backed != x.backed || x.keyKept < x.keyLive || x.keys >= len(x.slots) && entries > 0 {
				t.Fatalf("step %d: %d bytes backed, %d accounted; %d key bytes in %d; %d hash slots for %d keys", step, backed, x.backed, x.keyLive, x.keyKept, len(x.slots), x.keys)
			}
			var meta uint64
			for _, tb := range tables {
				meta += tb.MetaBytes()
			}
			if want := entries*EntrySize + 4*len(x.slots) + keyBytes; entries > 0 && meta != uint64(want) {
				t.Fatalf("step %d: the tables' MetaBytes add up to %d, want %d", step, meta, want)
			}
		}
		for step := 0; len(ops) > 0; step++ {
			op, i := arg()%8, arg()%3
			switch op {
			case 0, 1, 2: // one put: a new version, a replacement, the same version elsewhere
				put(i, key(arg()), proto.Version(1+arg()%5), proto.Seq(arg()))
			case 3:
				del(i, key(arg()), proto.Version(1+arg()%5))
			case 4: // Drop: the slots go to the other tables, or the slabs with the last entry
				empty := len(models[i]) == 0
				tables[i].Drop()
				tables[i] = x.NewTable()
				clear(models[i])
				if len(models[0])+len(models[1])+len(models[2]) == 0 && !empty && (x.slabs != nil || x.slots != nil || x.backed != 0) {
					t.Fatalf("step %d: the last entries were dropped and the index keeps its memory", step)
				}
				if len(x.tabs) != 4 {
					t.Fatalf("step %d: three tables at a time have used %d marks", step, len(x.tabs)-1)
				}
			case 5: // a burst of long new keys: slabs, key chunks and the index grow
				for j, n := 0, arg(); j < n; j++ {
					put(i, burst(j), 1, proto.Seq(j))
				}
			case 6: // and go: the index shrinks, the keys are copied together
				for j, n := arg(), arg(); j < n; j++ {
					del(i, burst(j), 1)
				}
			case 7: // rehash to any size that holds the keys
				if n := minSlots << (arg() % 8); n > x.keys && len(x.slots) > 0 {
					x.rehash(n)
				}
			}
			check(step)
		}
	})
}

// TestMetaSlotsCrossTables: the slots a table frees are the next
// entries' of any table on the same index — a key that moves from Rep
// to SRS frees an entry in one table and makes one in another, and the
// shard's slabs do not grow for it.
func TestMetaSlotsCrossTables(t *testing.T) {
	const n = 5000
	x := NewMetaIndex()
	rep, srs := x.NewTable(), x.NewTable()
	key := func(i int) string { return fmt.Sprintf("key-%08d", i) }
	for i := 0; i < n; i++ {
		rep.Put(&Entry{Rec: rec(key(i), 1, 1, true)})
	}
	slabs := len(x.slabs)
	for i := 0; i < n; i++ {
		srs.Put(&Entry{Rec: rec(key(i), 2, 2, true)})
		rep.Delete(key(i), 1)
	}
	if rep.Len() != 0 || srs.Len() != n || x.cut != n+1 {
		t.Fatalf("%d + %d entries in %d slots after moving %d keys one at a time", rep.Len(), srs.Len(), x.cut, n)
	}
	for i := 0; i < n; i++ {
		srs.Delete(key(i), 2)
	}
	for i := 0; i < n; i++ {
		rep.Put(&Entry{Rec: rec(key(i), 3, 1, true)})
	}
	if len(x.slabs) != slabs || x.cut != n+1 {
		t.Fatalf("%d slabs of %d slots became %d of %d: deleting %d entries from one table and putting %d into another cut a slab", slabs, n+1, len(x.slabs), x.cut, n, n)
	}
}

// TestEntrySize pins the metadata entry. It is 88 bytes: the 80 it was
// as a heap object of its own plus the chain link, the table mark and
// the hash tag; in a slab an entry costs its size and not a size class,
// so the 12-16 B operation identity of ROADMAP item 2 will make this
// read 104 (or 96 for 8 B), where the heap object would have gone from
// the 80-byte class to the 96-byte one for any of them.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 88 {
		t.Fatalf("store.Entry is %d bytes, want 88", got)
	}
}

// TestMetaBytesPerEntry pins what a node's collected heap holds per
// entry copy: 16 384 entries of 8-byte keys in the three tables of one
// index, as a redundancy node holds a shard's, cost at most 112 B each
// with key, slab slack and hash index, and nothing per key beside that.
// At the parent (f8355ac) a table was a map[EntryKey]*Entry and cost
// 176.4 B per entry (the 80 B entry, a 16 B key, ~80 B of map slot),
// and a coordinator kept a VolatileIndex beside its tables at 112.1 B
// per key more; the same measurement, HeapAlloc after two collections.
func TestMetaBytesPerEntry(t *testing.T) {
	const n = 16384
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%08x", i)
	}
	before := heap()
	x := NewMetaIndex()
	tables := [3]*MetaTable{x.NewTable(), x.NewTable(), x.NewTable()}
	for i, k := range keys {
		tables[i%3].Put(&Entry{Rec: proto.MetaRecord{Key: k, Version: 1, Memgest: proto.MemgestID(i%3 + 1)}})
	}
	perEntry := float64(heap()-before) / n
	var meta uint64
	for _, tb := range tables {
		meta += tb.MetaBytes()
	}
	t.Logf("%.1f B of collected heap per entry copy; MetaBytes says %.1f in use, %.1f backed", perEntry, float64(meta)/n, float64(x.backed)/n)
	if perEntry > 112 {
		t.Errorf("an entry copy costs %.1f B of collected heap, want at most 112", perEntry)
	}
	if got := float64(x.backed) / n; got > 112 || got > perEntry+1 || got < perEntry-1 {
		t.Errorf("the index accounts %.1f B per entry where the heap grew by %.1f", got, perEntry)
	}
	// The coordinator's second structure is gone: the newest version of
	// a key is one probe of the same index.
	if e := x.Highest(keys[n/2]); e == nil || e.Rec.Version != 1 {
		t.Fatal("Highest lost a key")
	}
	runtime.KeepAlive(keys)
}
