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
// the moment it is cut until the arena is dropped or evacuates it, and
// then goes to a free list that the next arena of any node takes from
// before anything new is mapped; a chunk is never unmapped, so a stale
// reader sees wrong bytes (0xDB under poison), never a fault. A chunk
// entering the pool gives its pages back to the system (releasePages)
// unless poison is on, so memory an arena evacuates or drops leaves the
// resident set, not only the arena. Fresh chunks are zero without
// having been touched; a recycled one is cleared when it is handed out
// again, since a release is only advice, and a no-op off Linux. Chunks
// start at multiples of chunkSize, so the chunk of a stored byte is its
// address shifted.
const (
	// chunkSize bounds the slack of a block (the unused tail of its
	// last backed chunk), how often a value straddles two chunks, and
	// what an arena holds beyond its slots.
	chunkShift = 16
	chunkSize  = 1 << chunkShift
	slabSize   = 64 * chunkSize

	// evacuateAt is how many bytes of freed slots an arena keeps before
	// it gives a chunk back: see arena.evacuate.
	evacuateAt = 4 * chunkSize
)

var chunkPool struct {
	mu   sync.Mutex
	slab []byte   // uncut tail of the newest mapping
	free [][]byte // chunks arenas gave back, dirty
}

// arenaBacked counts the bytes mapped for stored bytes: chunks cut
// (held by an arena or waiting in the pool) plus runs. It is
// process.arena_bytes_backed in /debug/ringvars.
var arenaBacked atomic.Uint64

// ArenaBytesBacked returns the bytes this process has mapped for stored
// bytes, whether an arena holds them or the pool does.
func ArenaBytesBacked() uint64 { return arenaBacked.Load() }

// ArenaBytesPooled returns the part of ArenaBytesBacked that no arena
// holds: chunks waiting in the pool for the next taker.
func ArenaBytesPooled() uint64 {
	chunkPool.mu.Lock()
	defer chunkPool.mu.Unlock()
	return uint64(len(chunkPool.free)) * chunkSize
}

func init() {
	metrics.Default.Register("process.arena_bytes_backed", metrics.GaugeFunc(func() int64 { return int64(ArenaBytesBacked()) }))
	metrics.Default.Register("process.arena_bytes_pooled", metrics.GaugeFunc(func() int64 { return int64(ArenaBytesPooled()) }))
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
		// One chunk more than a slab, to start at a multiple of chunkSize
		// wherever the mapping landed; the pages skipped are never touched.
		m := mapAnon(slabSize + chunkSize)
		skip := -uintptr(unsafe.Pointer(&m[0])) & (chunkSize - 1)
		p.slab = m[skip : skip+slabSize]
	}
	c := p.slab[:chunkSize:chunkSize]
	p.slab = p.slab[chunkSize:]
	p.mu.Unlock()
	arenaBacked.Add(chunkSize)
	return c
}

func putChunks(chunks ...[]byte) {
	chunkPool.mu.Lock()
	chunkPool.free = append(chunkPool.free, chunks...)
	chunkPool.mu.Unlock()
}

// chunk is what an arena knows about one chunk it holds.
type chunk struct {
	mem    []byte
	owners []*Meta // the entries whose slots are in mem; Meta.at is the position
	live   int32   // bytes of the slots in use
	level  int32   // the arena files the chunk at fill[level][pos]
	pos    int32
	pinned bool // a slot without an owner is in use: the chunk stays
}

// arena cuts slots out of chunks for one owner: a MetaTable's Rep
// values, or the rows of a region. Slot sizes come in classes (steps of
// 16 bytes up to 128, then four per doubling: under a fifth of a slot
// is slack), slots of all classes share the owner's newest chunk, and a
// freed slot is reused, newest first, before a new one is cut. A
// request larger than a chunk gets a page-rounded mapping of its own,
// unmapped when freed. An arena is used by its owner's goroutine only.
//
// Freed slots do not pile up: free keeps fewer than evacuateAt bytes of
// them (see evacuate), so the chunks behind an arena are its slots in
// use, under evacuateAt of free ones, the uncut tail of its newest
// chunk, and whatever tail an older chunk had left when a slot did not
// fit. The bookkeeping for that is O(1) per alloc and free: a live
// count per chunk, found from a slot's address, and the chunks filed by
// how full they are.
//
// Bytes returned by alloc are zero unless free handed them back before;
// the regions rely on that and never free.
type arena struct {
	chunks    map[uintptr]*chunk       // by address >> chunkShift
	fill      [fillLevels + 1][]*chunk // every chunk, by live bytes / fillStep
	cur       *chunk                   // the newest chunk
	tail      []byte                   // its uncut remainder
	freed     [numClasses][]*byte
	freeBytes int              // the slots on freed
	deferred  int              // added to evacuateAt after an evacuation found no room
	runs      map[*byte][]byte // the mappings of requests larger than a chunk
	runLen    uint64           // their total size
	used      uint64           // bytes asked for and not freed
	moved     ValueMoves       // what evacuate has done
	poison    bool             // test switch: freed bytes are overwritten with 0xDB
}

// ValueMoves counts what a table's arena did to give memory back while
// the table lived: slots copied to another chunk, and chunks returned
// to the pool once empty.
type ValueMoves struct {
	SlotsRelocated, ChunksReleased uint64
}

const (
	numClasses = 8 + 4*9 // 16..128 by 16, then 160..chunkSize
	fillLevels = 16
	fillStep   = chunkSize / fillLevels
)

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

// classSize is the slot size of a class.
func classSize(class int) int {
	if class < 8 {
		return (class + 1) * 16
	}
	return (5 + (class-8)%4) << (5 + (class-8)/4)
}

var pageSize = os.Getpagesize()

// alloc returns n bytes (n > 0). Given an owner, they become its slot
// and free or evacuate may take them away; given none, they stay put
// for the arena's life.
func (a *arena) alloc(n int, owner *Meta) []byte {
	a.used += uint64(n)
	if n > chunkSize {
		run := mapAnon((n + pageSize - 1) &^ (pageSize - 1))
		if a.runs == nil {
			a.runs = make(map[*byte][]byte)
		}
		a.runs[&run[0]] = run
		a.runLen += uint64(len(run))
		arenaBacked.Add(uint64(len(run)))
		if owner != nil {
			owner.hold(&run[0])
		}
		return run[:n:n]
	}
	class, size := slotClass(n)
	p, c := a.takeFreed(class, size)
	if p == nil {
		if len(a.tail) < size {
			a.cut()
		}
		p, c = &a.tail[0], a.cur
		a.tail = a.tail[size:]
	}
	a.occupy(c, p, size, owner)
	return unsafe.Slice(p, n)
}

// takeFreed returns the newest freed slot of a class and its chunk, or
// nils.
func (a *arena) takeFreed(class, size int) (*byte, *chunk) {
	f := a.freed[class]
	if len(f) == 0 {
		return nil, nil
	}
	p := f[len(f)-1]
	a.freed[class] = f[:len(f)-1]
	if a.freeBytes -= size; a.freeBytes < evacuateAt {
		a.deferred = 0
	}
	return p, a.chunks[chunkKey(p)]
}

// cut makes a chunk from the pool the arena's newest.
func (a *arena) cut() {
	a.tail = getChunk()
	a.cur = &chunk{mem: a.tail, pos: int32(len(a.fill[0]))}
	a.fill[0] = append(a.fill[0], a.cur)
	if a.chunks == nil {
		a.chunks = make(map[uintptr]*chunk)
	}
	a.chunks[chunkKey(&a.tail[0])] = a.cur
}

func chunkKey(p *byte) uintptr { return uintptr(unsafe.Pointer(p)) >> chunkShift }

// occupy puts the slot at p in c, of size bytes, in use, as owner's if
// there is one.
func (a *arena) occupy(c *chunk, p *byte, size int, owner *Meta) {
	a.refile(c, size)
	if owner == nil {
		c.pinned = true
		return
	}
	owner.hold(p)
	owner.at = uint32(len(c.owners))
	if c.owners == nil {
		// Room for a chunk of 1 KiB values at once: growing from one
		// would leave six outgrown arrays behind per chunk.
		c.owners = make([]*Meta, 0, chunkSize>>10)
	}
	c.owners = append(c.owners, owner)
}

// refile changes a chunk's live bytes and keeps its place in fill.
func (a *arena) refile(c *chunk, by int) {
	c.live += int32(by)
	level := c.live / fillStep
	if level == c.level {
		return
	}
	a.unfile(c)
	c.level, c.pos = level, int32(len(a.fill[level]))
	a.fill[level] = append(a.fill[level], c)
}

func (a *arena) unfile(c *chunk) {
	f := a.fill[c.level]
	end := len(f) - 1
	last := f[end]
	f[c.pos], last.pos = last, c.pos
	f[end] = nil // for the collector, as in free
	a.fill[c.level] = f[:end]
}

// free takes back the slot alloc made e's.
func (a *arena) free(e *Meta) {
	b := e.view()
	e.unhold()
	a.used -= uint64(len(b))
	if a.poison {
		poison(b)
	}
	if len(b) > chunkSize {
		a.unmapRun(a.runs[&b[0]])
		return
	}
	class, size := slotClass(len(b))
	c := a.chunks[chunkKey(&b[0])]
	a.refile(c, -size)
	end := len(c.owners) - 1
	last := c.owners[end]
	c.owners[e.at], last.at = last, e.at
	c.owners[end] = nil // or a stale pointer keeps a deleted entry from the collector
	c.owners = c.owners[:end]
	a.freed[class] = append(a.freed[class], &b[0])
	a.freeBytes += size
	for a.freeBytes >= evacuateAt+a.deferred {
		a.deferred = 0
		if !a.evacuate() {
			// Not again until another chunk's worth has been freed, or
			// the freed slots have been used up and piled up anew.
			a.deferred = a.freeBytes + chunkSize - evacuateAt
		}
	}
}

// evacuate empties the arena's sparsest chunk and returns it to the
// pool: each value in it is copied to a free slot of its class in
// another chunk — none is less full — and its entry repointed. free
// calls it when the freed slots amount to evacuateAt bytes, so a table
// that shrinks, or whose keys move to another memgest, gives its memory
// to whoever grows; nothing else moves a stored byte, which is why a
// view of one (Entry.Bytes) is good only until the next operation of
// its table that frees. The work is the values moved plus a look at
// every free slot, and those are bounded by evacuateAt. It reports
// false, and changes nothing, when some value of the chunk has no free
// slot of its class elsewhere, or the arena has no chunk but its
// newest, whose tail it is still cutting.
func (a *arena) evacuate() bool {
	c := a.sparsest()
	if c == nil {
		return false
	}
	// The chunk's own free slots leave with it: room is what the others have.
	key := chunkKey(&c.mem[0])
	var need [numClasses]int
	for _, e := range c.owners {
		class, _ := slotClass(int(e.Length))
		need[class]++
	}
	for class, n := range need {
		for _, p := range a.freed[class] {
			if n == 0 {
				break
			}
			if chunkKey(p) != key {
				n--
			}
		}
		if n > 0 {
			return false
		}
	}
	for class, f := range a.freed {
		kept := f[:0]
		for _, p := range f {
			if chunkKey(p) != key {
				kept = append(kept, p)
			}
		}
		a.freeBytes -= (len(f) - len(kept)) * classSize(class)
		a.freed[class] = kept
	}
	for _, e := range c.owners {
		class, size := slotClass(int(e.Length))
		p, to := a.takeFreed(class, size)
		copy(unsafe.Slice(p, e.Length), e.view())
		a.occupy(to, p, size, e)
	}
	a.moved.SlotsRelocated += uint64(len(c.owners))
	a.moved.ChunksReleased++
	a.unfile(c)
	delete(a.chunks, key)
	a.release(c.mem)
	putChunks(c.mem)
	return true
}

// sparsest returns the chunk with the fewest live bytes (to a fillStep)
// among those evacuate may empty, or nil.
func (a *arena) sparsest() *chunk {
	for _, f := range a.fill {
		for i := len(f) - 1; i >= 0; i-- {
			if c := f[i]; c != a.cur && !c.pinned {
				return c
			}
		}
	}
	return nil
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
	chunks := make([][]byte, 0, len(a.chunks))
	for _, f := range a.fill {
		for _, c := range f {
			a.release(c.mem)
			chunks = append(chunks, c.mem)
		}
	}
	for _, run := range a.runs {
		a.unmapRun(run)
	}
	putChunks(chunks...)
	*a = arena{poison: a.poison}
}

// release readies a chunk the arena no longer holds for the pool: its
// pages go back to the system, or under poison it is overwritten, so
// that a stale reader sees 0xDB rather than zeros.
func (a *arena) release(chunk []byte) {
	if a.poison {
		poison(chunk)
	} else {
		releasePages(chunk)
	}
}

func poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}
