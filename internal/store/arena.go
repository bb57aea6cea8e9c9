package store

import (
	"math/bits"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"ring/internal/metrics"
)

// Every stored byte of a node — a Rep value, an SRS data block, a
// parity block — lives in chunkSize chunks carved from anonymous
// mappings (mapAnon), outside the collected heap: the collector's heap
// is metadata and messages, and its headroom is sized by those alone.
//
// The chunk source is process-wide. A chunk belongs to one arena from
// the moment it is cut until the arena is dropped, and then goes to a
// free list that the next arena of any node takes from before anything
// new is mapped; a chunk is never unmapped, so a stale reader sees
// wrong bytes (0xDB under poison), never a fault. Fresh chunks are
// zero without having been touched; a recycled one is cleared when it
// is handed out again.
const (
	// chunkSize bounds the slack of a block (the unused tail of its
	// last backed chunk), how often a value straddles two chunks, and
	// what an arena holds beyond its slots.
	chunkSize = 64 << 10
	slabSize  = 64 * chunkSize
)

var chunkPool struct {
	mu   sync.Mutex
	slab []byte   // uncut tail of the newest mapping
	free [][]byte // chunks of dropped arenas, dirty
}

// arenaBacked counts the bytes mapped for stored bytes: chunks cut
// (held by an arena or waiting in the pool) plus runs. It is
// process.arena_bytes_backed in /debug/ringvars.
var arenaBacked atomic.Uint64

// ArenaBytesBacked returns the bytes this process has mapped for stored
// bytes, whether an arena holds them or the pool does.
func ArenaBytesBacked() uint64 { return arenaBacked.Load() }

func init() {
	metrics.Default.Register("process.arena_bytes_backed", metrics.GaugeFunc(func() int64 { return int64(ArenaBytesBacked()) }))
}

func getChunk() []byte {
	p := &chunkPool
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		clear(c)
		return c
	}
	if len(p.slab) < chunkSize {
		p.slab = mapAnon(slabSize)
	}
	c := p.slab[:chunkSize:chunkSize]
	p.slab = p.slab[chunkSize:]
	p.mu.Unlock()
	arenaBacked.Add(chunkSize)
	return c
}

// arena cuts slots out of chunks for one owner: a MetaTable's Rep
// values, or the rows of a region. Slot sizes come in classes (steps of
// 16 bytes up to 128, then four per doubling: under a fifth of a slot
// is slack), slots of all classes share the owner's newest chunk, and a
// freed slot is reused, newest first, before a new one is cut. A
// request larger than a chunk gets a page-rounded mapping of its own,
// unmapped when freed. An arena is used by its owner's goroutine only.
//
// Bytes returned by alloc are zero unless free handed them back before;
// the regions rely on that and never free.
type arena struct {
	chunks [][]byte
	tail   []byte // uncut remainder of the newest chunk
	freed  [numClasses][]*byte
	runs   map[*byte][]byte // the mappings of requests larger than a chunk
	runLen uint64           // their total size
	used   uint64           // bytes asked for and not freed
	poison bool             // test switch: freed bytes are overwritten with 0xDB
}

const numClasses = 8 + 4*9 // 16..128 by 16, then 160..chunkSize

// newArena returns an empty arena. Its chunks go back to the pool when
// the owner drops it, or when the collector finds the owner gone: nodes
// are discarded whole (a killed simulated node, a test's cluster)
// without anyone walking their tables.
func newArena(poison bool) *arena {
	a := &arena{poison: poison}
	runtime.SetFinalizer(a, (*arena).drop)
	return a
}

// slotClass returns the class of an n-byte request (0 < n <= chunkSize)
// and the class's slot size.
func slotClass(n int) (class, size int) {
	if n <= 128 {
		size = (n + 15) &^ 15
		return size/16 - 1, size
	}
	b := bits.Len(uint(n - 1)) // 2^(b-1) < n <= 2^b
	size = (n + 1<<(b-3) - 1) &^ (1<<(b-3) - 1)
	return 8 + (b-8)*4 + size>>(b-3) - 5, size
}

var pageSize = os.Getpagesize()

// alloc returns n bytes (n > 0) that stay put until freed.
//
//ring:hotpath-stop a chunk's worth of slots amortises the cut of a new chunk
func (a *arena) alloc(n int) []byte {
	a.used += uint64(n)
	if n > chunkSize {
		run := mapAnon((n + pageSize - 1) &^ (pageSize - 1))
		if a.runs == nil {
			a.runs = make(map[*byte][]byte)
		}
		a.runs[&run[0]] = run
		a.runLen += uint64(len(run))
		arenaBacked.Add(uint64(len(run)))
		return run[:n:n]
	}
	class, size := slotClass(n)
	if f := a.freed[class]; len(f) > 0 {
		p := f[len(f)-1]
		a.freed[class] = f[:len(f)-1]
		return unsafe.Slice(p, n)
	}
	if len(a.tail) < size {
		a.tail = getChunk()
		a.chunks = append(a.chunks, a.tail)
	}
	b := a.tail[:n:n]
	a.tail = a.tail[size:]
	return b
}

// free takes back what alloc returned, at the length it was asked for.
func (a *arena) free(b []byte) {
	a.used -= uint64(len(b))
	if a.poison {
		poison(b)
	}
	if len(b) > chunkSize {
		a.unmapRun(a.runs[&b[0]])
		return
	}
	class, _ := slotClass(len(b))
	a.freed[class] = append(a.freed[class], &b[0])
}

// backed returns the bytes of memory behind the arena.
func (a *arena) backed() uint64 { return uint64(len(a.chunks))*chunkSize + a.runLen }

func (a *arena) unmapRun(run []byte) {
	delete(a.runs, &run[0])
	a.runLen -= uint64(len(run))
	arenaBacked.Add(-uint64(len(run)))
	unmapAnon(run)
}

// drop returns every chunk to the pool and unmaps every run; the arena
// is empty afterwards and its finalizer is spent.
func (a *arena) drop() {
	runtime.SetFinalizer(a, nil)
	if a.poison {
		for _, c := range a.chunks {
			poison(c)
		}
	}
	for _, run := range a.runs {
		a.unmapRun(run)
	}
	if len(a.chunks) > 0 {
		chunkPool.mu.Lock()
		chunkPool.free = append(chunkPool.free, a.chunks...)
		chunkPool.mu.Unlock()
	}
	*a = arena{poison: a.poison}
}

func poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}
