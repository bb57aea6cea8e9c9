package store

import (
	"bytes"
	"testing"
)

// The demand-backed regions must be indistinguishable from the eager
// ones they replaced, byte for byte and delta for delta, while backing
// only what was touched.

// FuzzBlockHeapModel drives a BlockHeap and a flat, fully allocated
// []byte reference with the same fuzzer-chosen operation stream and
// requires every observable — Alloc/Reserve outcomes, Write deltas,
// Read/BlockData contents, the byte accounting — to agree. The geometry
// (3 blocks of 2.5 chunks each, values up to 6 KiB) has values straddle
// chunks, a short last chunk, and chunks that are never touched.
func FuzzBlockHeapModel(f *testing.F) {
	f.Add([]byte{0, 200, 1, 0, 7, 0, 40, 2, 0, 4, 0, 6, 1, 5, 0, 3, 0})
	f.Add([]byte{3, 2, 255, 255, 16, 5, 2, 4, 2, 0, 255, 1, 0, 9, 6, 0, 5, 1})
	f.Add([]byte{4, 1, 3, 0, 0, 0, 0, 0, 0, 1, 0, 1, 2, 0, 5, 1})
	f.Add(bytes.Repeat([]byte{0, 255, 1, 0, 3}, 40))

	f.Fuzz(func(t *testing.T, ops []byte) {
		const nblocks, blockSize, first = 3, chunkSize * 5 / 2, 7
		h := NewBlockHeap(first, nblocks, blockSize)
		ref := make([]byte, nblocks*blockSize)
		at := func(e Extent) []byte {
			lo := int(e.Block-first)*blockSize + int(e.Off)
			return ref[lo : lo+int(e.Len)]
		}
		var live []Extent
		overlaps := func(e Extent) bool {
			for _, l := range live {
				if l.Block == e.Block && l.Off < e.Off+e.Len && e.Off < l.Off+l.Len {
					return true
				}
			}
			return false
		}
		// arg consumes one operand byte (0 once the stream runs dry).
		arg := func() int {
			if len(ops) == 0 {
				return 0
			}
			v := ops[0]
			ops = ops[1:]
			return int(v)
		}
		fill := func(p []byte, seed int) {
			for i := range p {
				p[i] = byte(seed + i*7)
			}
		}
		for len(ops) > 0 {
			switch op := arg() % 7; op {
			case 0: // Alloc
				n := 1 + arg()*24 // up to 6 KiB
				e, err := h.Alloc(n)
				if err != nil {
					if err != ErrHeapFull {
						t.Fatalf("Alloc(%d): %v", n, err)
					}
					continue
				}
				if int(e.Len) != n || int(e.Off)+n > blockSize || overlaps(e) {
					t.Fatalf("Alloc(%d) = %+v overlaps or overflows (live %v)", n, e, live)
				}
				live = append(live, e)
			case 1, 2: // Write (twice as likely: it is the op that matters)
				if len(live) == 0 {
					continue
				}
				e := live[arg()%len(live)]
				val := make([]byte, e.Len)
				fill(val, arg())
				want := make([]byte, e.Len)
				for i := range want {
					want[i] = at(e)[i] ^ val[i]
				}
				if delta := h.Write(e, val); !bytes.Equal(delta, want) {
					t.Fatalf("Write(%+v): delta differs from old^new", e)
				}
				copy(at(e), val)
			case 3: // Free
				if len(live) == 0 {
					continue
				}
				i := arg() % len(live)
				h.Free(live[i])
				live = append(live[:i], live[i+1:]...)
			case 4: // Reserve
				e := Extent{Block: first + uint32(arg()%nblocks), Off: uint32(arg() * (blockSize / 255)), Len: uint32(1 + arg()*8)}
				if int(e.Off+e.Len) > blockSize {
					continue
				}
				err := h.Reserve(e)
				if (err == nil) == overlaps(e) {
					t.Fatalf("Reserve(%+v) = %v with live %v", e, err, live)
				}
				if err == nil {
					live = append(live, e)
				}
			case 5: // SetBlockData, with a zero tail of fuzzer-chosen length
				b := arg() % nblocks
				data := make([]byte, blockSize)
				fill(data[:arg()*(blockSize/255)], arg())
				h.SetBlockData(first+uint32(b), data)
				copy(ref[b*blockSize:], data)
			case 6: // read everything back
				for _, e := range live {
					if !bytes.Equal(h.Read(e), at(e)) {
						t.Fatalf("read of %+v differs from the reference", e)
					}
				}
				for b := 0; b < nblocks; b++ {
					if !bytes.Equal(h.BlockData(first+uint32(b)), ref[b*blockSize:(b+1)*blockSize]) {
						t.Fatalf("BlockData(%d) differs from the reference", b)
					}
				}
			}
			var used uint64
			for _, e := range live {
				used += uint64(e.Len)
			}
			if h.UsedBytes() != used || h.UsedBytes()+h.FreeBytes() != nblocks*blockSize || h.BackedBytes() > nblocks*blockSize {
				t.Fatalf("accounting: used %d (want %d) free %d backed %d", h.UsedBytes(), used, h.FreeBytes(), h.BackedBytes())
			}
		}
	})
}

// TestRegionsBackOnlyWhatIsTouched: a fresh heap and parity region hold
// no memory whatever their capacity, a never-written block reads as
// blockSize zeros, a first touch at a high offset backs the chunks it
// lands in and nothing below, and a heap filling from the front holds
// less than one chunk beyond what is allocated.
func TestRegionsBackOnlyWhatIsTouched(t *testing.T) {
	const blockSize = 8 << 20
	h := NewBlockHeap(0, 2, blockSize)
	p := NewParityRegion(2, blockSize)
	if h.BackedBytes() != 0 || p.BackedBytes() != 0 {
		t.Fatalf("fresh regions are backed: heap %d parity %d", h.BackedBytes(), p.BackedBytes())
	}
	zeros := make([]byte, blockSize)
	if !bytes.Equal(h.BlockData(1), zeros) || !bytes.Equal(p.Block(1), zeros) {
		t.Fatal("a never-written block must read as blockSize zeros")
	}
	if _, err := h.Alloc(blockSize); err != nil {
		t.Fatal(err)
	}
	if h.BackedBytes() != 0 || p.BackedBytes() != 0 {
		t.Fatal("reading or allocating backed a block")
	}
	h = NewBlockHeap(0, 2, blockSize)

	// Parity first touched at a high offset, across a chunk boundary.
	const off = 80*chunkSize - 1
	delta := []byte{0xA5, 0x5A, 0xFF}
	p.ApplyDelta(1, off, delta)
	blk := p.Block(1)
	if !bytes.Equal(blk[off:off+3], delta) || !bytes.Equal(blk[:off], zeros[:off]) || !bytes.Equal(blk[off+3:], zeros[off+3:]) {
		t.Fatal("high-offset delta misplaced")
	}
	if got := p.BackedBytes(); got != 2*chunkSize {
		t.Fatalf("parity backed %d bytes for a 3-byte touch across two chunks", got)
	}

	// A heap filling up 16 KiB at a time, then rewritten in place.
	val := bytes.Repeat([]byte{7}, 16<<10)
	var exts []Extent
	for i := 0; i < 200; i++ {
		e, err := h.Alloc(len(val))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(e, val)
		exts = append(exts, e)
		if used, backed := h.UsedBytes(), h.BackedBytes(); backed < used || backed >= used+chunkSize {
			t.Fatalf("after %d puts: used %d backed %d", i+1, used, backed)
		}
	}
	backed := h.BackedBytes()
	for round := 0; round < 3; round++ {
		for i, e := range exts {
			h.Free(e)
			if exts[i], _ = h.Alloc(len(val)); exts[i] != e {
				t.Fatalf("first fit moved a rewritten value from %+v to %+v", e, exts[i])
			}
			h.Write(exts[i], val)
		}
	}
	if h.BackedBytes() != backed {
		t.Fatalf("steady-state rewrites grew the backing %d -> %d", backed, h.BackedBytes())
	}

	// An installed block backs only the chunks that hold something.
	data := make([]byte, blockSize)
	copy(data[3*chunkSize+100:], "recovered")
	q := NewParityRegion(1, blockSize)
	q.SetBlock(0, data)
	if !bytes.Equal(q.Block(0), data) {
		t.Fatal("SetBlock round trip")
	}
	if got := q.BackedBytes(); got != chunkSize {
		t.Fatalf("installing 9 meaningful bytes backed %d, want one chunk", got)
	}
	// ... and zeroes what a chunk held before.
	q.SetBlock(0, zeros)
	if !bytes.Equal(q.Block(0), zeros) {
		t.Fatal("installing zeros over a backed chunk left its old bytes")
	}
}

// TestHeapWriteAllocs pins the coordinator's store step: at working
// size, Alloc+Write+Free allocates nothing, and neither does a parity
// node's ApplyDelta.
func TestHeapWriteAllocs(t *testing.T) {
	h := NewBlockHeap(0, 1, 1<<20)
	p := NewParityRegion(1, 1<<20)
	val := make([]byte, 16<<10)
	run := func() {
		e, err := h.Alloc(len(val))
		if err != nil {
			t.Fatal(err)
		}
		p.ApplyDelta(0, int(e.Off), h.Write(e, val))
		h.Free(e)
	}
	run() // reach working size
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("Alloc+Write+ApplyDelta+Free allocates %v per run, want 0", n)
	}
}
