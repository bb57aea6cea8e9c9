package store

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestKeyHashStable(t *testing.T) {
	if KeyHash("abc") != KeyHash("abc") {
		t.Fatal("hash not deterministic")
	}
	if KeyHash("abc") == KeyHash("abd") {
		t.Fatal("suspicious collision between near keys")
	}
}

func TestBlockHeapAllocWriteRead(t *testing.T) {
	h := NewBlockHeap(10, 3, 128)
	if h.Blocks() != 3 || h.BlockSize() != 128 || h.FirstBlock() != 10 {
		t.Fatal("geometry wrong")
	}
	ext, err := h.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Block != 10 || ext.Off != 0 || ext.Len != 16 {
		t.Fatalf("first alloc at %+v", ext)
	}
	val := []byte("0123456789abcdef")
	delta := h.Write(ext, val)
	// Fresh region was zero, so delta == val.
	if !bytes.Equal(delta, val) {
		t.Fatal("delta for fresh write must equal the value")
	}
	if !bytes.Equal(h.Read(ext), val) {
		t.Fatal("read back mismatch")
	}
	// Overwrite: delta = old ^ new.
	val2 := []byte("fedcba9876543210")
	delta2 := h.Write(ext, val2)
	for i := range delta2 {
		if delta2[i] != val[i]^val2[i] {
			t.Fatal("overwrite delta wrong")
		}
	}
	if h.UsedBytes() != 16 {
		t.Fatalf("used = %d", h.UsedBytes())
	}
}

func TestBlockHeapNoSpanning(t *testing.T) {
	h := NewBlockHeap(0, 2, 64)
	// Fill most of block 0.
	a, _ := h.Alloc(50)
	if a.Block != 0 {
		t.Fatal("expected block 0")
	}
	// 20 bytes no longer fit in block 0; must go to block 1.
	b, err := h.Alloc(20)
	if err != nil {
		t.Fatal(err)
	}
	if b.Block != 1 {
		t.Fatalf("allocation spanned into block %d", b.Block)
	}
	// Oversized allocations fail outright.
	if _, err := h.Alloc(65); err == nil {
		t.Fatal("alloc larger than block accepted")
	}
	if _, err := h.Alloc(0); err == nil {
		t.Fatal("zero alloc accepted")
	}
}

func TestBlockHeapFullAndFree(t *testing.T) {
	h := NewBlockHeap(0, 2, 32)
	var exts []Extent
	for {
		e, err := h.Alloc(32)
		if err != nil {
			break
		}
		exts = append(exts, e)
	}
	if len(exts) != 2 {
		t.Fatalf("allocated %d full blocks, want 2", len(exts))
	}
	if _, err := h.Alloc(1); err != ErrHeapFull {
		t.Fatalf("want ErrHeapFull, got %v", err)
	}
	h.Free(exts[0])
	if _, err := h.Alloc(32); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestBlockHeapFreeCoalescing(t *testing.T) {
	h := NewBlockHeap(0, 1, 100)
	a, _ := h.Alloc(30)
	b, _ := h.Alloc(30)
	c, _ := h.Alloc(40)
	h.Free(a)
	h.Free(c)
	h.Free(b) // joins a and c: the whole block is free again
	if got, err := h.Alloc(100); err != nil || got.Off != 0 {
		t.Fatalf("coalescing failed: %+v %v", got, err)
	}
}

func TestBlockHeapDoubleFreePanics(t *testing.T) {
	h := NewBlockHeap(0, 1, 64)
	e, _ := h.Alloc(10)
	h.Free(e)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	h.Free(e)
}

func TestBlockHeapReuseDelta(t *testing.T) {
	// When a freed extent is reused, Write must produce old^new, which
	// keeps parity consistent for recycled space.
	h := NewBlockHeap(0, 1, 64)
	e, _ := h.Alloc(8)
	old := []byte("oldvalue")
	h.Write(e, old)
	h.Free(e)
	e2, _ := h.Alloc(8)
	if e2 != e {
		t.Fatalf("expected reuse of freed extent, got %+v", e2)
	}
	nw := []byte("newvalue")
	delta := h.Write(e2, nw)
	for i := range delta {
		if delta[i] != old[i]^nw[i] {
			t.Fatal("reuse delta must be old^new, not new")
		}
	}
}

func TestBlockHeapRandomizedAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewBlockHeap(0, 4, 256)
	live := map[Extent][]byte{}
	for i := 0; i < 2000; i++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			for e, want := range live {
				if !bytes.Equal(h.Read(e), want) {
					t.Fatalf("iteration %d: extent %+v corrupted", i, e)
				}
				h.Free(e)
				delete(live, e)
				break
			}
			continue
		}
		n := 1 + rng.Intn(64)
		e, err := h.Alloc(n)
		if err != nil {
			continue
		}
		val := make([]byte, n)
		rng.Read(val)
		h.Write(e, val)
		live[e] = val
	}
	var want uint64
	for e := range live {
		want += uint64(e.Len)
	}
	if h.UsedBytes() != want {
		t.Fatalf("used accounting: %d != %d", h.UsedBytes(), want)
	}
	if h.FreeBytes() != 4*256-want {
		t.Fatalf("free accounting: %d", h.FreeBytes())
	}
}

func TestBlockData(t *testing.T) {
	h := NewBlockHeap(5, 2, 16)
	e, _ := h.Alloc(4)
	h.Write(e, []byte{1, 2, 3, 4})
	blk := h.BlockData(5)
	if !bytes.Equal(blk[:4], []byte{1, 2, 3, 4}) {
		t.Fatal("BlockData wrong")
	}
	h.SetBlockData(6, bytes.Repeat([]byte{9}, 16))
	if h.BlockData(6)[15] != 9 {
		t.Fatal("SetBlockData wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range block access did not panic")
		}
	}()
	h.BlockData(7)
}

func TestParityRegion(t *testing.T) {
	p := NewParityRegion(3, 32)
	if p.Stripes() != 3 || p.BlockSize() != 32 {
		t.Fatal("geometry")
	}
	p.ApplyDelta(1, 4, []byte{0xff, 0x0f})
	if p.Block(1)[4] != 0xff || p.Block(1)[5] != 0x0f {
		t.Fatal("delta not applied")
	}
	p.ApplyDelta(1, 4, []byte{0xff, 0x0f})
	if p.Block(1)[4] != 0 || p.Block(1)[5] != 0 {
		t.Fatal("XOR twice must cancel")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overflow delta did not panic")
		}
	}()
	p.ApplyDelta(0, 31, []byte{1, 2})
}

func BenchmarkHeapAllocFree(b *testing.B) {
	h := NewBlockHeap(0, 64, 64*1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := h.Alloc(1024)
		if err != nil {
			b.Fatal(err)
		}
		h.Free(e)
	}
}
