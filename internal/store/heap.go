// Package store implements the node-local storage of a Ring server:
// the block-structured data heap whose geometry feeds the SRS stripe
// math, the per-memgest metadata hashtables, and the volatile
// hashtable that maps each key to its versions across memgests
// (Section 5.1 of the paper).
package store

import (
	"bytes"
	"crypto/subtle"
	"errors"
	"fmt"
	"sort"
)

// KeyHash returns the 64-bit FNV-1a hash used for key-to-shard
// mapping: shard = KeyHash(key) mod s.
func KeyHash(key string) uint64 { return hashKey(key) }

// Extent locates a value inside the block heap: global logical block
// index, byte offset within the block, and length. Extents never span
// logical blocks so that every byte of a value shares one stripe
// position and one parity offset.
type Extent struct {
	Block uint32
	Off   uint32
	Len   uint32
}

// ErrHeapFull is returned when no block has room for an allocation.
var ErrHeapFull = errors.New("store: heap full")

// region is the demand-backed storage under BlockHeap and ParityRegion:
// a run of blocks of blockSize bytes each, where blockSize is a capacity
// and not a reservation. A block is a row of fixed-size chunks, each
// with no backing until a write reaches it; bytes of an unbacked chunk
// read as zero. Resident memory therefore follows the bytes stored
// (first-fit allocation keeps those at the front of each block), and
// nothing is ever copied to grow: a block that has reached its working
// size and one still filling pay the same per operation.
type region struct {
	blockSize int
	chunk     int        // chunk size: chunkSize, or blockSize if smaller
	blocks    [][][]byte // blocks[b][c] is nil until written
	mem       *arena     // where the backing comes from; never freed into, so always zero
}

func newRegion(nblocks, blockSize int) region {
	r := region{blockSize: blockSize, chunk: min(chunkSize, blockSize), blocks: make([][][]byte, nblocks), mem: newArena(false)}
	for b := range r.blocks {
		r.blocks[b] = make([][]byte, (blockSize+r.chunk-1)/r.chunk)
	}
	return r
}

// each visits bytes [off, off+n) of block b chunk by chunk: fn gets the
// piece of the chunk's backing that lies in the range and the piece's
// position within the range. With back set, unbacked chunks are backed
// first; otherwise they are visited with a nil piece of length m.
//
//ring:hotpath
func (r *region) each(b, off, n int, back bool, fn func(p []byte, i, m int)) {
	for i := 0; i < n; {
		c, o := (off+i)/r.chunk, (off+i)%r.chunk
		m := min(n-i, r.chunkLen(c)-o)
		ch := r.blocks[b][c]
		if ch == nil && back {
			ch = r.mem.alloc(r.chunkLen(c), nil)
			r.blocks[b][c] = ch
		}
		if ch != nil {
			ch = ch[o : o+m]
		}
		fn(ch, i, m)
		i += m
	}
}

// chunkLen is the size of chunk c of a block: the last may be short.
func (r *region) chunkLen(c int) int { return min(r.chunk, r.blockSize-c*r.chunk) }

// snapshot returns a copy of all blockSize bytes of block b.
func (r *region) snapshot(b int) []byte {
	out := make([]byte, r.blockSize)
	for c, ch := range r.blocks[b] {
		copy(out[c*r.chunk:], ch)
	}
	return out
}

// install overwrites block b with data (blockSize bytes). A chunk that
// is all zeros in data and was never backed stays unbacked, so an
// installed block is as small as the one it was recovered from.
func (r *region) install(b int, data []byte) {
	if len(data) != r.blockSize {
		panic(fmt.Sprintf("store: block install of %d bytes, want %d", len(data), r.blockSize))
	}
	for c, ch := range r.blocks[b] {
		piece := data[c*r.chunk:][:r.chunkLen(c)]
		if ch != nil {
			copy(ch, piece)
		} else if len(bytes.TrimLeft(piece, "\x00")) > 0 {
			r.blocks[b][c] = r.mem.alloc(len(piece), nil)
			copy(r.blocks[b][c], piece)
		}
	}
}

// drop returns the backing to the chunk pool. The region is unusable
// afterwards: its owner is being discarded.
func (r *region) drop() {
	r.mem.drop()
	r.blocks = nil
}

// backed returns the bytes of backing currently allocated.
func (r *region) backed() uint64 {
	var n uint64
	for _, blk := range r.blocks {
		for _, ch := range blk {
			n += uint64(len(ch))
		}
	}
	return n
}

// freeRun is a free byte range within one block.
type freeRun struct {
	off, n uint32
}

// BlockHeap is the primary-data region a coordinator owns for one SRS
// memgest: a contiguous run of logical blocks, each of fixed capacity.
// Allocation is first-fit within a block with coalescing frees; values
// never span blocks. Allocating costs no memory; writing does (see
// region).
type BlockHeap struct {
	firstBlock uint32
	blockSize  uint32
	data       region
	free       [][]freeRun // free[i]: sorted disjoint free runs of block i
	used       uint64
	delta      []byte // scratch behind Write's result
}

// NewBlockHeap creates a heap of nblocks logical blocks, each of
// blockSize bytes, whose global indices start at firstBlock.
func NewBlockHeap(firstBlock, nblocks, blockSize int) *BlockHeap {
	if nblocks <= 0 || blockSize <= 0 {
		panic(fmt.Sprintf("store: invalid heap geometry %d x %d", nblocks, blockSize))
	}
	h := &BlockHeap{
		firstBlock: uint32(firstBlock),
		blockSize:  uint32(blockSize),
		data:       newRegion(nblocks, blockSize),
		free:       make([][]freeRun, nblocks),
	}
	for i := range h.free {
		h.free[i] = []freeRun{{0, uint32(blockSize)}}
	}
	return h
}

// BlockSize returns the per-block capacity.
func (h *BlockHeap) BlockSize() int { return int(h.blockSize) }

// Blocks returns the number of logical blocks.
func (h *BlockHeap) Blocks() int { return len(h.free) }

// FirstBlock returns the global index of the heap's first block.
func (h *BlockHeap) FirstBlock() uint32 { return h.firstBlock }

// UsedBytes returns the number of currently allocated bytes.
func (h *BlockHeap) UsedBytes() uint64 { return h.used }

// BackedBytes returns the bytes of memory behind the heap's blocks.
func (h *BlockHeap) BackedBytes() uint64 { return h.data.backed() }

// Drop gives the heap's memory back for other nodes of the process to
// use; the heap must not be used again.
func (h *BlockHeap) Drop() { h.data.drop() }

// Alloc reserves n bytes inside a single block (first fit) and returns
// the extent. It fails with ErrHeapFull when no block has a large
// enough free run, and rejects n larger than a block or zero.
//
//ring:hotpath
func (h *BlockHeap) Alloc(n int) (Extent, error) {
	if n <= 0 || uint32(n) > h.blockSize {
		return Extent{}, errAllocSize(n, h.blockSize)
	}
	for b := range h.free {
		for i, run := range h.free[b] {
			if run.n < uint32(n) {
				continue
			}
			ext := Extent{Block: h.firstBlock + uint32(b), Off: run.off, Len: uint32(n)}
			if run.n == uint32(n) {
				h.free[b] = append(h.free[b][:i], h.free[b][i+1:]...)
			} else {
				h.free[b][i] = freeRun{run.off + uint32(n), run.n - uint32(n)}
			}
			h.used += uint64(n)
			return ext, nil
		}
	}
	return Extent{}, ErrHeapFull
}

//ring:hotpath-stop cold error constructor
func errAllocSize(n int, blockSize uint32) error {
	if n <= 0 {
		return fmt.Errorf("store: invalid allocation size %d", n)
	}
	return fmt.Errorf("store: allocation %d exceeds block size %d", n, blockSize)
}

// Free returns an extent to the free list, coalescing with adjacent
// runs. Double frees and out-of-range extents panic: they indicate
// metadata corruption, which must not be masked. The backing stays: a
// freed extent keeps its bytes until reused, which the parity deltas of
// the next write into it rely on.
func (h *BlockHeap) Free(ext Extent) {
	b := h.localBlock(ext)
	runs := h.free[b]
	i := sort.Search(len(runs), func(i int) bool { return runs[i].off >= ext.Off })
	// Overlap checks against neighbours.
	if i > 0 && runs[i-1].off+runs[i-1].n > ext.Off {
		panic(fmt.Sprintf("store: double free or overlap at %+v", ext))
	}
	if i < len(runs) && ext.Off+ext.Len > runs[i].off {
		panic(fmt.Sprintf("store: double free or overlap at %+v", ext))
	}
	run := freeRun{ext.Off, ext.Len}
	// Coalesce with predecessor and successor.
	if i > 0 && runs[i-1].off+runs[i-1].n == run.off {
		run = freeRun{runs[i-1].off, runs[i-1].n + run.n}
		runs = append(runs[:i-1], runs[i:]...)
		i--
	}
	if i < len(runs) && run.off+run.n == runs[i].off {
		run.n += runs[i].n
		runs = append(runs[:i], runs[i+1:]...)
	}
	runs = append(runs, freeRun{})
	copy(runs[i+1:], runs[i:])
	runs[i] = run
	h.free[b] = runs
	h.used -= uint64(ext.Len)
}

// Reserve carves a specific extent out of the free space, used when a
// recovering coordinator reinstalls metadata whose extents were
// assigned by its predecessor. It fails if any byte of the extent is
// already allocated.
func (h *BlockHeap) Reserve(ext Extent) error {
	if ext.Len == 0 {
		return nil
	}
	b := h.localBlock(ext)
	runs := h.free[b]
	for i, run := range runs {
		if run.off > ext.Off || run.off+run.n < ext.Off+ext.Len {
			continue
		}
		// Split the run around the reservation.
		var repl []freeRun
		if run.off < ext.Off {
			repl = append(repl, freeRun{run.off, ext.Off - run.off})
		}
		if end := ext.Off + ext.Len; end < run.off+run.n {
			repl = append(repl, freeRun{end, run.off + run.n - end})
		}
		h.free[b] = append(runs[:i:i], append(repl, runs[i+1:]...)...)
		h.used += uint64(ext.Len)
		return nil
	}
	return fmt.Errorf("store: extent %+v overlaps an allocation", ext)
}

func (h *BlockHeap) localBlock(ext Extent) int {
	b := int(ext.Block) - int(h.firstBlock)
	if b < 0 || b >= len(h.free) || ext.Off+ext.Len > h.blockSize {
		h.panicExtent(ext)
	}
	return b
}

//ring:hotpath-stop cold panic constructor
func (h *BlockHeap) panicExtent(ext Extent) {
	if b := int(ext.Block) - int(h.firstBlock); b < 0 || b >= len(h.free) {
		panic(fmt.Sprintf("store: extent block %d outside heap [%d,%d)", ext.Block, h.firstBlock, int(h.firstBlock)+len(h.free)))
	}
	panic(fmt.Sprintf("store: extent %+v exceeds block size %d", ext, h.blockSize))
}

// Read returns a copy of the bytes at ext.
func (h *BlockHeap) Read(ext Extent) []byte {
	out := make([]byte, ext.Len)
	h.ReadInto(out, ext)
	return out
}

// ReadInto copies the bytes at ext into dst, which must be ext.Len
// long (the coordinator passes a pooled buffer).
//
//ring:hotpath
func (h *BlockHeap) ReadInto(dst []byte, ext Extent) {
	if uint32(len(dst)) != ext.Len {
		panicLen("read", len(dst), ext.Len)
	}
	h.data.each(h.localBlock(ext), int(ext.Off), len(dst), false, func(p []byte, i, m int) {
		if p == nil {
			clear(dst[i : i+m])
		} else {
			copy(dst[i:], p)
		}
	})
}

// Write stores val at ext and returns the delta (old XOR new) that
// parity nodes must apply, per the paper's update rule. The returned
// slice is scratch owned by the heap: it is valid until the next Write.
//
//ring:hotpath
func (h *BlockHeap) Write(ext Extent, val []byte) (delta []byte) {
	if uint32(len(val)) != ext.Len {
		panicLen("write", len(val), ext.Len)
	}
	if cap(h.delta) < len(val) {
		h.delta = make([]byte, len(val))
	}
	delta = h.delta[:len(val)]
	h.data.each(h.localBlock(ext), int(ext.Off), len(val), true, func(p []byte, i, m int) {
		subtle.XORBytes(delta[i:i+m], p, val[i:i+m])
		copy(p, val[i:i+m])
	})
	return delta
}

//ring:hotpath-stop cold panic constructor
func panicLen(op string, n int, want uint32) {
	panic(fmt.Sprintf("store: %s of %d bytes on an extent of %d", op, n, want))
}

// BlockData returns a copy of the contents of global logical block idx,
// all blockSize bytes of it; used when a parity node fetches stripe
// blocks for decoding.
func (h *BlockHeap) BlockData(idx uint32) []byte {
	return h.data.snapshot(h.localBlock(Extent{Block: idx}))
}

// SetBlockData overwrites a whole logical block (recovery install).
func (h *BlockHeap) SetBlockData(idx uint32, data []byte) {
	h.data.install(h.localBlock(Extent{Block: idx}), data)
}

// FreeBytes returns the total free capacity, for balance accounting.
func (h *BlockHeap) FreeBytes() uint64 {
	return uint64(len(h.free))*uint64(h.blockSize) - h.used
}

// ParityRegion is the storage of one parity node for one SRS memgest:
// one parity block per stripe offset, updated by XORing in
// coefficient-multiplied deltas. Like the data blocks whose offsets it
// mirrors, a parity block is backed only where it was written.
type ParityRegion struct {
	data region
}

// NewParityRegion creates stripes parity blocks of blockSize bytes.
func NewParityRegion(stripes, blockSize int) *ParityRegion {
	if stripes <= 0 || blockSize <= 0 {
		panic(fmt.Sprintf("store: invalid parity geometry %d x %d", stripes, blockSize))
	}
	return &ParityRegion{data: newRegion(stripes, blockSize)}
}

// ApplyDelta XORs delta into parity block t at byte offset off.
//
//ring:hotpath
func (p *ParityRegion) ApplyDelta(t, off int, delta []byte) {
	end := off + len(delta)
	if t < 0 || t >= len(p.data.blocks) || off < 0 || end > p.data.blockSize {
		p.panicRange(t, off, end)
	}
	p.data.each(t, off, len(delta), true, func(dst []byte, i, m int) {
		subtle.XORBytes(dst, dst, delta[i:i+m])
	})
}

//ring:hotpath-stop cold panic constructor
func (p *ParityRegion) panicRange(t, off, end int) {
	p.checkBlock(t)
	panic(fmt.Sprintf("store: parity delta [%d,%d) exceeds block size %d", off, end, p.data.blockSize))
}

func (p *ParityRegion) checkBlock(t int) {
	if t < 0 || t >= len(p.data.blocks) {
		panic(fmt.Sprintf("store: parity block %d out of range [0,%d)", t, len(p.data.blocks)))
	}
}

// Block returns a copy of the contents of parity block t, all blockSize
// bytes of it.
func (p *ParityRegion) Block(t int) []byte {
	p.checkBlock(t)
	return p.data.snapshot(t)
}

// SetBlock overwrites parity block t (rebuild install).
func (p *ParityRegion) SetBlock(t int, data []byte) {
	p.checkBlock(t)
	p.data.install(t, data)
}

// BackedBytes returns the bytes of memory behind the parity blocks.
func (p *ParityRegion) BackedBytes() uint64 { return p.data.backed() }

// Drop gives the region's memory back for other nodes of the process to
// use; the region must not be used again.
func (p *ParityRegion) Drop() { p.data.drop() }

// Stripes returns the number of parity blocks.
func (p *ParityRegion) Stripes() int { return len(p.data.blocks) }

// BlockSize returns the per-block capacity.
func (p *ParityRegion) BlockSize() int { return p.data.blockSize }
