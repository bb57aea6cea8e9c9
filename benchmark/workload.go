package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"ring/internal/proto"
	"ring/internal/workload"
)

// The deployment every workload runs on: ringd's memgest IDs are
// 1-based in declaration order of "-memgests rep3,srs3.2".
const (
	mgRep3 proto.MemgestID = 1
	mgSRS  proto.MemgestID = 2

	shards    = 3
	redundant = 2
	// blockSize is the SRS logical block size. SRS(3,2,3) gives each
	// coordinator one block, so it must hold a third of the largest SRS
	// working set (8 MiB in srs32_16k_put and tier_1k_read90_move) at no
	// more than half occupancy.
	blockSize = 8 << 20

	// connections is the number of client endpoints; it never exceeds
	// the two cores of the box the bounds were chosen on.
	connections = 2
	// closedDepth is the number of synchronous issue slots per
	// connection in the closed phase: 2 x 8 = 16 outstanding.
	closedDepth = 8
	// openSlots bounds the operations in flight per connection in the
	// open phase. It is far above any healthy operating point, so that
	// the phase stays open; an operation that finds every slot busy
	// waits in the queue and is still timed from its due time.
	openSlots = 64
)

// spec describes one named workload. Every field is fixed: the name is
// the unit in which later changes state their gains.
type spec struct {
	name string
	why  string

	keys      int
	zipfian   bool // YCSB zipfian theta 0.99, else uniform
	valueSize int
	// Operation mix in percent; the three sum to 100.
	getPct, putPct, movePct int
	putMemgest              proto.MemgestID
	durable                 bool // -data-dir with -fsync always
	// preMove moves half of the preloaded keys to the SRS memgest before
	// measuring (the per-item-resilience use case).
	preMove  bool
	openRate float64 // open-phase offered load, ops/s over both connections
	// tracedOps is the length of the sequential traced run.
	tracedOps int
}

var workloads = []*spec{
	{
		name: "rep3_1k_mixed",
		why:  "Rep(3,3) 1 KiB 50:50 zipfian, volatile: client, proto, transport and the coordinator/replica path do the work; gf/rs/srs and wal/bitcask/replog do none",
		keys: 4096, zipfian: true, valueSize: 1024,
		getPct: 50, putPct: 50, putMemgest: mgRep3,
		openRate: 8000, tracedOps: 20000,
	},
	{
		name: "srs32_16k_put",
		why:  "SRS(3,2,3) 16 KiB 5:95 uniform, volatile: wire bytes, heap deltas and gf/rs/srs parity updates dominate; the replication log path is bypassed",
		keys: 512, valueSize: 16 << 10,
		getPct: 5, putPct: 95, putMemgest: mgSRS,
		openRate: 3000, tracedOps: 8000,
	},
	{
		name: "rep3_1k_fsync",
		why:  "rep3_1k_mixed with -fsync always: replog.Durable, wal, bitcask and the fsync under the runner lock dominate; the gap to rep3_1k_mixed is the durability tax",
		keys: 4096, zipfian: true, valueSize: 1024,
		getPct: 50, putPct: 50, putMemgest: mgRep3, durable: true,
		// About a quarter of what the closed phase sustains, like the other
		// workloads: closer to saturation the queue behind each fsync
		// multiplies the disk's own drift.
		openRate: 1200, tracedOps: 1500,
	},
	{
		name: "tier_1k_read90_move",
		why:  "16384 keys split between rep3 and srs3.2, 90% get, 5% put, 5% move between schemes: the read path carries throughput, move/convert and SRS re-encode carry move latency",
		keys: 16384, valueSize: 1024,
		getPct: 90, putPct: 5, movePct: 5, putMemgest: mgRep3, preMove: true,
		openRate: 10000, tracedOps: 20000,
	},
}

func findWorkload(name string) *spec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opMove
	numKinds
)

func (k opKind) String() string { return [...]string{"get", "put", "move"}[k] }

// op is one generated request: what to do to which key. Per-key write
// counters and move destinations are assigned when the op is issued, by
// the connection that owns the key.
type op struct {
	kind opKind
	key  uint32
}

// stream returns the first n operations of the workload's request
// stream for a seed. The seed is the only source of randomness: keys
// come from the internal/workload choosers, kinds from a second
// generator derived from the same seed.
func (w *spec) stream(seed int64, n int) []op {
	var keys workload.KeyChooser
	if w.zipfian {
		keys = workload.NewZipfian(w.keys, workload.DefaultTheta, seed)
	} else {
		keys = workload.NewUniform(w.keys, seed)
	}
	kinds := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	ops := make([]op, n)
	for i := range ops {
		ops[i].key = uint32(keys.Next())
		switch p := kinds.Intn(100); {
		case p < w.getPct:
			ops[i].kind = opGet
		case p < w.getPct+w.putPct:
			ops[i].kind = opPut
		default:
			ops[i].kind = opMove
		}
	}
	return ops
}

// connOf partitions keys between the connections, so that one
// connection sees every acknowledgement of a key.
func connOf(key uint32) int { return int(key % connections) }

// preMoved selects the half of the keys that starts in the SRS memgest
// on a preMove workload: every other pair, so that each connection owns
// keys of both schemes.
func preMoved(key uint32) bool { return (key>>1)&1 == 0 }

func keyName(key uint32) string { return fmt.Sprintf("%08x", key) }

// Value layout: every stored value names the write that produced it,
// so a reply can be checked without a copy of the store.
//
//	[0:4)   magic
//	[4:8)   key index
//	[8:12)  per-key write counter
//	[12:20) seed
//	[20:)   bytes of a generator seeded with (seed, key, counter)
const (
	valueMagic  = 0x52494e47 // "RING"
	valueHeader = 20
)

func bodySeed(seed int64, key, ctr uint32) uint64 {
	return uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(key)<<32 ^ uint64(ctr)
}

// splitmix64 advances *x and returns the next output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fillValue writes the value of write ctr of key into buf, which must
// be at least valueHeader bytes long.
func fillValue(buf []byte, seed int64, key, ctr uint32) {
	binary.LittleEndian.PutUint32(buf[0:], valueMagic)
	binary.LittleEndian.PutUint32(buf[4:], key)
	binary.LittleEndian.PutUint32(buf[8:], ctr)
	binary.LittleEndian.PutUint64(buf[12:], uint64(seed))
	x := bodySeed(seed, key, ctr)
	body := buf[valueHeader:]
	for len(body) >= 8 {
		binary.LittleEndian.PutUint64(body, splitmix64(&x))
		body = body[8:]
	}
	if len(body) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], splitmix64(&x))
		copy(body, tail[:])
	}
}

// checkValue reports the write counter a value carries and whether the
// value is, byte for byte, what fillValue wrote for that counter of
// this key and seed.
func checkValue(buf []byte, size int, seed int64, key uint32) (ctr uint32, ok bool) {
	if len(buf) != size || size < valueHeader {
		return 0, false
	}
	if binary.LittleEndian.Uint32(buf[0:]) != valueMagic ||
		binary.LittleEndian.Uint32(buf[4:]) != key ||
		binary.LittleEndian.Uint64(buf[12:]) != uint64(seed) {
		return 0, false
	}
	ctr = binary.LittleEndian.Uint32(buf[8:])
	x := bodySeed(seed, key, ctr)
	body := buf[valueHeader:]
	for len(body) >= 8 {
		if binary.LittleEndian.Uint64(body) != splitmix64(&x) {
			return ctr, false
		}
		body = body[8:]
	}
	if len(body) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], splitmix64(&x))
		for i := range body {
			if body[i] != tail[i] {
				return ctr, false
			}
		}
	}
	return ctr, true
}

// keyState is what the owning connection knows about one key.
type keyState struct {
	issued uint32 // write counters handed out so far (0 = preload)
	inSRS  bool   // scheme the generator last sent the key to
	// maxAck is the highest version any acknowledged put or move of the
	// key returned. Versions rise in commit order, so a get issued after
	// that acknowledgement must return at least this version.
	maxAck proto.Version
	// seen[v] is 1 + the write counter observed at version v, from a put
	// acknowledgement or a get reply; 0 while unknown. Two observations
	// of one version must agree.
	seen []uint32
}

// checker verifies every reply on one connection. Operations on one key
// may overlap, so it does not assume that write counters commit in
// issue order; it relies on the versions the coordinator assigns.
type checker struct {
	seed int64
	size int

	mu    sync.Mutex
	keys  []keyState
	wrong int // replies that contradict an earlier acknowledgement
	first string
}

func newChecker(w *spec, seed int64) *checker {
	return &checker{seed: seed, size: w.valueSize, keys: make([]keyState, w.keys)}
}

// nextWrite hands out the next write counter of key for a put into mg.
func (c *checker) nextWrite(key uint32, mg proto.MemgestID) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := &c.keys[key]
	ctr := k.issued
	k.issued++
	k.inSRS = mg == mgSRS
	return ctr
}

// nextMove flips the scheme of key and returns the memgest to move to.
func (c *checker) nextMove(key uint32) proto.MemgestID {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := &c.keys[key]
	k.inSRS = !k.inSRS
	if k.inSRS {
		return mgSRS
	}
	return mgRep3
}

// floor returns the version a get issued now must reach.
func (c *checker) floor(key uint32) proto.Version {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.keys[key].maxAck
}

func (c *checker) fail(format string, args ...any) bool {
	c.wrong++
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
	return false
}

// observe records that version ver of key holds write ctr, and reports
// whether that agrees with what was observed before.
func (c *checker) observe(k *keyState, key uint32, ver proto.Version, ctr uint32) bool {
	for uint64(len(k.seen)) <= uint64(ver) {
		k.seen = append(k.seen, 0)
	}
	if prev := k.seen[ver]; prev != 0 && prev != ctr+1 {
		return c.fail("key %d version %d held write %d, now write %d", key, ver, prev-1, ctr)
	}
	k.seen[ver] = ctr + 1
	return true
}

// ackPut records a put acknowledgement and reports whether it agrees
// with earlier replies.
func (c *checker) ackPut(key, ctr uint32, ver proto.Version) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := &c.keys[key]
	if ver > k.maxAck {
		k.maxAck = ver
	}
	return c.observe(k, key, ver, ctr)
}

func (c *checker) ackMove(key uint32, ver proto.Version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k := &c.keys[key]; ver > k.maxAck {
		k.maxAck = ver
	}
}

// gotValue checks a get reply against the floor taken when the get was
// issued.
func (c *checker) gotValue(key uint32, floor proto.Version, val []byte, ver proto.Version) bool {
	ctr, ok := checkValue(val, c.size, c.seed, key)
	c.mu.Lock()
	defer c.mu.Unlock()
	k := &c.keys[key]
	switch {
	case !ok:
		return c.fail("key %d version %d: value of %d bytes is not one this run wrote", key, ver, len(val))
	case ctr >= k.issued:
		return c.fail("key %d version %d: write %d was never issued", key, ver, ctr)
	case ver < floor:
		return c.fail("key %d: got version %d after version %d was acknowledged", key, ver, floor)
	}
	return c.observe(k, key, ver, ctr)
}

// wrongValues returns how many replies failed a check, and the first.
func (c *checker) wrongValues() (int, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wrong, c.first
}
