package store

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"unsafe"

	"ring/internal/proto"
)

// FuzzValueArenaModel drives two MetaTables that hold Rep values and a
// map of plain byte slices with the same fuzzer-chosen stream of puts,
// value replacements, deletes and table drops. Every value must read
// back as the model's, no two live slots of either table may overlap, a
// freed slot must be taken before anything new is cut, the used/backed
// accounting must be exact, and a dropped table must hand every chunk
// back to the pool and every run back to the system. Value sizes span
// the 16-byte classes, the quarter-doubling classes, a whole chunk and
// runs beyond one.
func FuzzValueArenaModel(f *testing.F) {
	f.Add([]byte{0, 1, 9, 0, 2, 9, 1, 1, 0, 3, 40, 5, 0, 0, 1, 200, 4, 0, 5})
	f.Add([]byte{0, 7, 255, 0, 8, 254, 1, 7, 0, 9, 255, 2, 8, 3, 5, 4, 1, 0, 7, 3})
	f.Add(bytes.Repeat([]byte{0, 3, 77, 1, 3, 5}, 30))

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
		// model mirrors one table: what it holds, and the arena's state as
		// far as the accounting shows it.
		type model struct {
			vals   map[EntryKey][]byte
			freed  [numClasses]int
			tail   int
			chunks int
			runs   uint64
		}
		tables := [2]*MetaTable{NewMetaTable(), NewMetaTable()}
		models := [2]*model{{vals: map[EntryKey][]byte{}}, {vals: map[EntryKey][]byte{}}}
		defer func() {
			for _, tb := range tables {
				tb.Drop()
			}
		}()
		pageRound := func(n int) uint64 { return uint64((n + pageSize - 1) &^ (pageSize - 1)) }
		release := func(m *model, old []byte) {
			switch n := len(old); {
			case n == 0:
			case n > chunkSize:
				m.runs -= pageRound(n)
			default:
				c, _ := slotClass(n)
				m.freed[c]++
			}
		}
		take := func(m *model, n int) {
			switch {
			case n == 0:
			case n > chunkSize:
				m.runs += pageRound(n)
			default:
				c, sz := slotClass(n)
				if m.freed[c] > 0 {
					m.freed[c]--
				} else {
					if m.tail < sz {
						m.chunks++
						m.tail = chunkSize
					}
					m.tail -= sz
				}
			}
		}
		for step := 0; len(ops) > 0; step++ {
			i := arg() % 2
			tb, m := tables[i], models[i]
			ek := EntryKey{Key: fmt.Sprintf("k%d", arg()%12), Version: 1}
			switch op := arg() % 6; op {
			case 0, 1: // Put (a new entry, replacing any old one) and Hold
				val := make([]byte, size(arg()))
				for j := range val {
					val[j] = byte(step + j*13)
				}
				e := &Entry{Rec: proto.MetaRecord{Key: ek.Key, Version: ek.Version, Length: uint32(len(val))}}
				release(m, m.vals[ek])
				take(m, len(val))
				tb.Put(e)
				tb.Hold(e, val)
				m.vals[ek] = val
			case 2: // Hold again: the entry's value is replaced in place
				e := tb.Get(ek.Key, ek.Version)
				if e == nil {
					continue
				}
				val := bytes.Repeat([]byte{byte(step)}, size(arg()))
				release(m, m.vals[ek])
				take(m, len(val))
				e.Rec.Length = uint32(len(val))
				tb.Hold(e, val)
				m.vals[ek] = val
			case 3: // Delete
				if _, had := m.vals[ek]; (tb.Delete(ek.Key, ek.Version) != nil) != had {
					t.Fatalf("Delete(%v) disagrees with the model (had=%v)", ek, had)
				}
				release(m, m.vals[ek])
				delete(m.vals, ek)
			case 4: // Drop the table: chunks to the pool, runs to the system
				chunkPool.mu.Lock()
				pooled := len(chunkPool.free)
				chunkPool.mu.Unlock()
				mapped := ArenaBytesBacked()
				tb.Drop()
				chunkPool.mu.Lock()
				got := len(chunkPool.free) - pooled
				chunkPool.mu.Unlock()
				if got != m.chunks || mapped-ArenaBytesBacked() != m.runs {
					t.Fatalf("Drop returned %d chunks and %d run bytes, want %d and %d", got, mapped-ArenaBytesBacked(), m.chunks, m.runs)
				}
				if tb.Len() != 0 {
					t.Fatalf("dropped table still has %d entries", tb.Len())
				}
				*m = model{vals: map[EntryKey][]byte{}}
			case 5: // read everything back, and look for overlaps
				type span struct{ lo, hi uintptr }
				var spans []span
				for k, tb := range tables {
					for ek, want := range models[k].vals {
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
			}
			var used uint64
			for _, v := range m.vals {
				used += uint64(len(v))
			}
			if gotUsed, gotBacked := tb.ValueBytes(); gotUsed != used || gotBacked != uint64(m.chunks)*chunkSize+m.runs {
				t.Fatalf("step %d: table %d accounts used %d backed %d, model used %d chunks %d runs %d",
					step, i, gotUsed, gotBacked, used, m.chunks, m.runs)
			}
		}
	})
}

// TestSlotClasses: every size up to a chunk lands in a class whose slot
// fits it with less than a fifth to spare (above the 16-byte steps),
// classes and slot sizes grow together, and a chunk is the last class.
func TestSlotClasses(t *testing.T) {
	prevClass, prevSize := -1, 0
	for n := 1; n <= chunkSize; n++ {
		class, size := slotClass(n)
		if size < n || class < 0 || class >= numClasses {
			t.Fatalf("slotClass(%d) = class %d size %d", n, class, size)
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
	tb.Poison = true
	hold := func(key string) []byte {
		e := &Entry{Rec: proto.MetaRecord{Key: key, Version: 1, Length: 1000}}
		tb.Put(e)
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

// TestEntrySize pins the metadata entry: it is most of what the
// collected heap holds per stored value.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got > 80 {
		t.Fatalf("store.Entry is %d bytes, want at most 80", got)
	}
}
