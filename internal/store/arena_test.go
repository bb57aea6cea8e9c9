package store

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"ring/internal/proto"
)

// FuzzValueArenaModel drives two poisoned MetaTables that hold Rep
// values and a map of plain byte slices with the same fuzzer-chosen
// stream of puts, value replacements, deletes, evacuations and table
// drops. Every value must read back as the model's wherever its slot now
// is, no two live slots of either table may overlap, a freed slot must
// be taken before a new chunk is cut, the arena's books (bytes used and
// backed, live bytes and owners per chunk, the freed slots, where each
// chunk is filed) must be exact, fewer than evacuateAt bytes of freed
// slots may remain after any step unless an evacuation found no room,
// a view taken before its value was deleted or its chunk evacuated must
// read 0xDB, and a dropped table must hand every chunk back to the pool
// and every run back to the system. Value sizes span the 16-byte
// classes, the quarter-doubling classes, a whole chunk and runs beyond
// one.
func FuzzValueArenaModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 9, 0, 2, 0, 9, 1, 1, 0, 3, 0, 40, 5, 0, 0, 1, 200, 4, 0, 5})
	f.Add([]byte{0, 7, 0, 255, 0, 8, 0, 254, 0, 7, 2, 9, 0, 8, 3, 0, 0, 5, 1, 7, 0, 253, 1, 0, 4})
	f.Add(bytes.Repeat([]byte{0, 3, 0, 77, 1, 3, 5}, 30))
	// Nine values of three to a chunk, two deleted from the oldest chunk
	// and one from the next, then evacuate: the one left in the oldest
	// moves over.
	var seed []byte
	for k := byte(0); k < 9; k++ {
		seed = append(seed, 0, k, 0, 212)
	}
	f.Add(append(seed, 0, 0, 3, 0, 1, 3, 0, 3, 3, 0, 0, 6, 0, 0, 5, 0, 0, 6))
	// Six chunk-sized values, five deleted: the freed slots reach
	// evacuateAt and whole chunks go back on their own.
	seed = nil
	for k := byte(0); k < 6; k++ {
		seed = append(seed, 1, k, 0, 249)
	}
	for k := byte(0); k < 5; k++ {
		seed = append(seed, 1, k, 3)
	}
	f.Add(append(seed, 1, 0, 5))
	// Fourteen chunks of a 40 KiB and a 20 KiB value each; with the small
	// ones deleted the freed slots pass evacuateAt but no large value has
	// anywhere to go, until large ones are deleted too.
	seed = nil
	for k := byte(0); k < 14; k++ {
		seed = append(seed, 0, 2*k, 0, 230, 0, 2*k+1, 0, 212)
	}
	for k := byte(0); k < 14; k++ {
		seed = append(seed, 0, 2*k+1, 3)
	}
	f.Add(append(seed, 0, 0, 3, 0, 2, 3, 0, 4, 3, 0, 0, 5))

	f.Fuzz(func(t *testing.T, ops []byte) {
		arg := func() int {
			if len(ops) == 0 {
				return 0
			}
			v := ops[0]
			ops = ops[1:]
			return int(v)
		}
		// size maps one operand byte onto the interesting lengths.
		size := func(v int) int {
			switch {
			case v < 8:
				return v // 0 (nothing to hold) and the smallest class
			case v < 200:
				return v * 7 // up to 1.4 KiB, across many classes
			case v < 250:
				return (v - 199) * 1300 // up to a whole chunk
			default:
				return chunkSize + (v-249)*3000 // runs of their own
			}
		}
		type model map[EntryKey][]byte
		tables := [2]*MetaTable{NewMetaTable(), NewMetaTable()}
		models := [2]model{{}, {}}
		for _, tb := range tables {
			tb.x.Poison = true
		}
		defer func() {
			for _, tb := range tables {
				tb.Drop()
			}
		}()
		pooled := func() int {
			chunkPool.mu.Lock()
			defer chunkPool.mu.Unlock()
			return len(chunkPool.free)
		}
		// views returns where the chunk-held values of a table are now.
		views := func(tb *MetaTable, m model) map[EntryKey][]byte {
			out := map[EntryKey][]byte{}
			for ek, v := range m {
				if len(v) > 0 && len(v) <= chunkSize {
					out[ek], _ = tb.Get(ek.Key, ek.Version).Bytes()
				}
			}
			return out
		}
		// stale fails unless every view whose value has since gone or
		// moved reads as poison. It is called before anything could have
		// taken the chunk again.
		stale := func(step int, tb *MetaTable, before map[EntryKey][]byte) {
			for ek, old := range before {
				var now []byte
				if e := tb.Get(ek.Key, ek.Version); e != nil {
					now, _ = e.Bytes()
				}
				if len(now) > 0 && &now[0] == &old[0] {
					continue
				}
				if !bytes.Equal(old, bytes.Repeat([]byte{0xDB}, len(old))) {
					t.Fatalf("step %d: the view of %v taken before it was freed or moved reads %x..., want 0xDB", step, ek, old[:4])
				}
			}
		}
		// books checks a table's arena against its model.
		books := func(step, i int) {
			tb, m := tables[i], models[i]
			var used, runs uint64
			slots, slotBytes := 0, 0
			for _, v := range m {
				used += uint64(len(v))
				switch n := len(v); {
				case n > chunkSize:
					runs += uint64((n + pageSize - 1) &^ (pageSize - 1))
				case n > 0:
					_, sz := slotClass(n)
					slots++
					slotBytes += sz
				}
			}
			a := tb.vals
			if a == nil {
				a = &arena{}
			}
			if gotUsed, gotBacked := tb.ValueBytes(); gotUsed != used || gotBacked != uint64(len(a.chunks))*chunkSize+runs {
				t.Fatalf("step %d: table %d accounts used %d backed %d, model used %d chunks %d runs %d",
					step, i, gotUsed, gotBacked, used, len(a.chunks), runs)
			}
			filed := 0
			for level, f := range a.fill {
				for pos, c := range f {
					filed++
					if a.chunks[chunkKey(&c.mem[0])] != c || int(c.level) != level || int(c.pos) != pos || int(c.live)/fillStep != level {
						t.Fatalf("step %d: table %d files a chunk of %d live bytes at %d/%d as %d/%d", step, i, c.live, level, pos, c.level, c.pos)
					}
					slots -= len(c.owners)
					slotBytes -= int(c.live)
					for at, e := range c.owners {
						if int(e.at) != at || a.chunks[chunkKey(e.slot)] != c {
							t.Fatalf("step %d: table %d: owner %d of a chunk says %d, or its slot is elsewhere", step, i, at, e.at)
						}
					}
				}
			}
			if filed != len(a.chunks) || slots != 0 || slotBytes != 0 {
				t.Fatalf("step %d: table %d files %d of %d chunks and misses %d owners, %d live bytes", step, i, filed, len(a.chunks), slots, slotBytes)
			}
			free := 0
			for class, f := range a.freed {
				free += len(f) * classSize(class)
			}
			if free != a.freeBytes || free >= evacuateAt+a.deferred {
				t.Fatalf("step %d: table %d holds %d bytes of freed slots, counts %d, and may hold %d+%d", step, i, free, a.freeBytes, evacuateAt, a.deferred)
			}
		}
		// hold checks that a value goes into a freed slot of its class
		// whenever there is one.
		hold := func(step int, tb *MetaTable, e *Entry, val []byte) {
			var cur *chunk
			if tb.vals != nil {
				cur = tb.vals.cur
			}
			tb.Hold(e, val)
			if n := len(val); n > 0 && n <= chunkSize && tb.vals.cur != cur {
				if class, _ := slotClass(n); len(tb.vals.freed[class]) > 0 {
					t.Fatalf("step %d: a chunk was cut for %d bytes while %d freed slots of their class wait", step, n, len(tb.vals.freed[class]))
				}
			}
		}
		for step := 0; len(ops) > 0; step++ {
			i := arg() % 2
			tb, m := tables[i], models[i]
			ek := EntryKey{Key: fmt.Sprintf("k%d", arg()%40), Version: 1}
			switch op := arg() % 7; op {
			case 0, 1: // Put (a new entry, replacing any old one) and Hold
				val := make([]byte, size(arg()))
				for j := range val {
					val[j] = byte(step + j*13)
				}
				e := tb.Put(&Entry{Rec: proto.MetaRecord{Key: ek.Key, Version: ek.Version, Length: uint32(len(val))}})
				hold(step, tb, e, val)
				m[ek] = val
			case 2: // Hold again: the entry's value is replaced in place
				e := tb.Get(ek.Key, ek.Version)
				if e == nil {
					continue
				}
				val := bytes.Repeat([]byte{byte(step)}, size(arg()))
				e.Rec.Length = uint32(len(val))
				hold(step, tb, e, val)
				m[ek] = val
			case 3: // Delete
				before := views(tb, m)
				_, did := tb.Delete(ek.Key, ek.Version)
				if _, had := m[ek]; did != had {
					t.Fatalf("Delete(%v) disagrees with the model (had=%v)", ek, had)
				}
				delete(m, ek)
				stale(step, tb, before)
			case 4: // Drop the table: chunks to the pool, runs to the system
				was, mapped := pooled(), ArenaBytesBacked()
				var chunks int
				var runs uint64
				if tb.vals != nil {
					chunks, runs = len(tb.vals.chunks), tb.vals.runLen
				}
				tb.Drop()
				if got := pooled() - was; got != chunks || mapped-ArenaBytesBacked() != runs {
					t.Fatalf("Drop returned %d chunks and %d run bytes, want %d and %d", got, mapped-ArenaBytesBacked(), chunks, runs)
				}
				if tb.Len() != 0 {
					t.Fatalf("dropped table still has %d entries", tb.Len())
				}
				tb = tb.x.NewTable() // a dropped table is done
				tables[i] = tb
				clear(m)
			case 5: // read everything back, and look for overlaps
				type span struct{ lo, hi uintptr }
				var spans []span
				for k, tb := range tables {
					for ek, want := range models[k] {
						e := tb.Get(ek.Key, ek.Version)
						if e == nil {
							t.Fatalf("table %d lost %v", k, ek)
						}
						got, held := e.Bytes()
						if !held || !bytes.Equal(got, want) {
							t.Fatalf("table %d %v: held=%v, %d bytes differ from the model's %d", k, ek, held, len(got), len(want))
						}
						if len(got) > 0 {
							lo := uintptr(unsafe.Pointer(&got[0]))
							spans = append(spans, span{lo, lo + uintptr(len(got))})
						}
					}
				}
				sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
				for j := 1; j < len(spans); j++ {
					if spans[j].lo < spans[j-1].hi {
						t.Fatalf("live values overlap: %v and %v", spans[j-1], spans[j])
					}
				}
			case 6: // evacuate now, whatever the freed slots amount to
				if tb.vals == nil {
					continue
				}
				before, was, chunks := views(tb, m), pooled(), len(tb.vals.chunks)
				did := tb.vals.evacuate()
				if got := pooled() - was; (got == 1) != did || chunks-len(tb.vals.chunks) != got {
					t.Fatalf("step %d: evacuate reported %v, the pool gained %d chunks and the table lost %d", step, did, got, chunks-len(tb.vals.chunks))
				}
				stale(step, tb, before)
				for ek, want := range m {
					if got, _ := tb.Get(ek.Key, ek.Version).Bytes(); !bytes.Equal(got, want) {
						t.Fatalf("step %d: %v reads differently after an evacuation", step, ek)
					}
				}
			}
			books(step, i)
		}
	})
}

// TestValueArenaGivesChunksBack: a table that loses half its values
// gives back the chunks they filled, whatever the values' sizes, while it
// lives: what stays behind the rest is bounded by a constant, evacuateAt
// of freed slots plus the newest chunk's uncut tail, not by what was
// freed (the arena this one replaced kept all of it: backed = 2 x used).
func TestValueArenaGivesChunksBack(t *testing.T) {
	const slack = evacuateAt + chunkSize
	for _, tc := range []struct {
		name  string
		sizes []int // of consecutive keys, over and over; all are whole slots or whole pages
	}{
		{"one class", []int{1 << 10}},
		{"two classes sharing chunks", []int{1 << 10, 256}},
		{"runs in the mix", []int{1 << 10, 1 << 10, 1 << 10, 1 << 10, 1 << 10, 1 << 10, 1 << 10, 1 << 10, 2 * chunkSize}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const keys = 4096
			tb := NewMetaTable()
			tb.x.Poison = true
			defer tb.Drop()
			key := func(i int) string { return fmt.Sprintf("%08x", i) }
			value := func(i int) []byte {
				v := bytes.Repeat([]byte{byte(i)}, tc.sizes[i%len(tc.sizes)])
				copy(v, key(i))
				return v
			}
			for i := 0; i < keys; i++ {
				e := tb.Put(&Entry{Rec: proto.MetaRecord{Key: key(i), Version: 1, Length: uint32(len(value(i)))}})
				tb.Hold(e, value(i))
			}
			full, backedFull := tb.ValueBytes()
			if backedFull > full+chunkSize {
				t.Fatalf("the full table holds %d bytes in %d", full, backedFull)
			}
			gone := func(i int) bool { return (i>>1)&1 == 0 } // every other pair
			was := ArenaBytesPooled()
			for i := 0; i < keys; i++ {
				if gone(i) {
					tb.Delete(key(i), 1)
				}
			}
			used, backed := tb.ValueBytes()
			moves := tb.ValueMoves()
			t.Logf("%d bytes in %d backed, then %d in %d: %d slots relocated, %d chunks released", full, backedFull, used, backed, moves.SlotsRelocated, moves.ChunksReleased)
			if used > full*6/10 || backed > used+slack {
				t.Errorf("after deleting half, %d bytes are held in %d, want at most %d more", used, backed, slack)
			}
			if got := ArenaBytesPooled() - was; got != moves.ChunksReleased*chunkSize || uint64(backedFull-backed) < got {
				t.Errorf("the pool gained %d bytes, the table released %d chunks and shrank by %d", got, moves.ChunksReleased, backedFull-backed)
			}
			for i := 0; i < keys; i++ {
				e := tb.Get(key(i), 1)
				if gone(i) != (e == nil) {
					t.Fatalf("key %d: gone=%v, entry %v", i, gone(i), e)
				}
				if e != nil {
					if got, _ := e.Bytes(); !bytes.Equal(got, value(i)) {
						t.Fatalf("key %d reads %d bytes that differ from its value", i, len(got))
					}
				}
			}
		})
	}
}

// TestSlotClasses: every size up to a chunk lands in a class whose slot
// fits it with less than a fifth to spare (above the 16-byte steps),
// classes and slot sizes grow together, and a chunk is the last class.
func TestSlotClasses(t *testing.T) {
	prevClass, prevSize := -1, 0
	for n := 1; n <= chunkSize; n++ {
		class, size := slotClass(n)
		if size < n || class < 0 || class >= numClasses || classSize(class) != size {
			t.Fatalf("slotClass(%d) = class %d size %d, classSize %d", n, class, size, classSize(class))
		}
		if n > 128 && (size-n)*5 >= size {
			t.Fatalf("slotClass(%d): slot of %d wastes a fifth or more", n, size)
		}
		if class != prevClass {
			if class != prevClass+1 || size <= prevSize {
				t.Fatalf("class %d size %d follows class %d size %d", class, size, prevClass, prevSize)
			}
			prevClass, prevSize = class, size
		} else if size != prevSize {
			t.Fatalf("class %d has slots of %d and %d", class, prevSize, size)
		}
	}
	if prevClass != numClasses-1 || prevSize != chunkSize {
		t.Fatalf("last class %d of %d, size %d", prevClass, numClasses, prevSize)
	}
}

// TestFreedBytesArePoisonedAndRecycledChunksZero: under the poison
// switch (core.PoisonPayloads sets it on every table of a node) the
// bytes of a freed value read 0xDB, whether one value was freed or the
// table dropped, so a view kept past the free is a wrong value; and the
// next owner of a dropped table's chunk finds it zero, which the
// regions rely on.
func TestFreedBytesArePoisonedAndRecycledChunksZero(t *testing.T) {
	poisoned := bytes.Repeat([]byte{0xDB}, 1000)
	tb := NewMetaTable()
	tb.x.Poison = true
	hold := func(key string) []byte {
		e := tb.Put(&Entry{Rec: proto.MetaRecord{Key: key, Version: 1, Length: 1000}})
		tb.Hold(e, bytes.Repeat([]byte{7}, 1000))
		b, _ := e.Bytes()
		return b
	}
	a, b := hold("a"), hold("b")
	tb.Delete("a", 1)
	if !bytes.Equal(a, poisoned) {
		t.Fatalf("a freed value reads %x..., want 0xDB", a[:4])
	}
	if !bytes.Equal(b, bytes.Repeat([]byte{7}, 1000)) {
		t.Fatal("freeing one value touched its neighbour")
	}
	tb.Drop()
	if !bytes.Equal(b, poisoned) {
		t.Fatalf("a dropped table's value reads %x..., want 0xDB", b[:4])
	}
	// The pool now holds that chunk, full of 0xDB; the next region to
	// back anything takes a pooled chunk, and finds it cleared.
	p := NewParityRegion(1, chunkSize)
	p.ApplyDelta(0, 100, []byte{1})
	blk := p.Block(0)
	if blk[100] != 1 || !bytes.Equal(blk[:100], make([]byte, 100)) || !bytes.Equal(blk[101:], make([]byte, chunkSize-101)) {
		t.Fatal("a recycled chunk was handed out dirty")
	}
	p.Drop()
}

// TestEvacuatedChunksAreReleased: a chunk an arena evacuates gives its
// pages back on its way to the pool, so a view kept into it past the
// move reads zero — and 0xDB under poison, where nothing is released —
// while the pool counts the chunk all the same (the mapping stays).
func TestEvacuatedChunksAreReleased(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("chunks are released with madvise(MADV_DONTNEED) on Linux only")
	}
	for _, poisoned := range []bool{false, true} {
		t.Run(fmt.Sprintf("poison=%v", poisoned), func(t *testing.T) {
			const keys = 1024
			tb := NewMetaTable()
			tb.x.Poison = poisoned
			defer tb.Drop()
			key := func(i int) string { return fmt.Sprintf("%08x", i) }
			value := bytes.Repeat([]byte{7}, 1000)
			views := make([][]byte, keys)
			for i := range views {
				e := tb.Put(&Entry{Rec: proto.MetaRecord{Key: key(i), Version: 1, Length: uint32(len(value))}})
				tb.Hold(e, value)
				views[i], _ = e.Bytes()
			}
			was := ArenaBytesPooled()
			for i := 0; i < keys; i += 2 {
				tb.Delete(key(i), 1)
			}
			moves := tb.ValueMoves()
			if moves.ChunksReleased == 0 {
				t.Fatal("deleting half the values evacuated no chunk")
			}
			if got := ArenaBytesPooled() - was; got != moves.ChunksReleased*chunkSize {
				t.Errorf("the pool gained %d bytes for %d chunks released", got, moves.ChunksReleased)
			}
			stale := bytes.Repeat([]byte{0}, len(value))
			if poisoned {
				stale = bytes.Repeat([]byte{0xDB}, len(value))
			}
			moved := 0
			for i := 1; i < keys; i += 2 {
				e := tb.Get(key(i), 1)
				now, _ := e.Bytes()
				if !bytes.Equal(now, value) {
					t.Fatalf("key %d reads %x... after the evacuations", i, now[:4])
				}
				if &now[0] == &views[i][0] {
					continue
				}
				moved++
				if !bytes.Equal(views[i], stale) {
					t.Fatalf("the old slot of moved key %d reads %x..., want %x", i, views[i][:4], stale[:4])
				}
			}
			if uint64(moved) != moves.SlotsRelocated {
				t.Fatalf("%d values moved, the table says %d", moved, moves.SlotsRelocated)
			}
		})
	}
}
