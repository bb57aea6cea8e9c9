package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ring/internal/client"
	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/store"
)

// TestBytesPerStoredByte is the tier-1 pin on memory per stored byte,
// the in-process miniature of the benchmark's tier_1k_read90_move
// set-up: 4096 keys of 1 KiB go into Rep(3,3), every other pair of them
// moves to SRS(3,2,3), and every key is read back and checked. What the
// loaded cluster holds beyond the idle one — the live Go heap after a
// collection, and the bytes the arena has mapped — is compared with
// what the codes alone would store, 3 bytes per Rep byte and 5/3 per
// SRS byte. Both terms repeat exactly from run to run, which is why
// they are the pin and resident memory (which adds the collector's
// headroom and the spans garbage died in) is the benchmark's business.
//
// Two bounds, because the sum alone cannot tell where bytes are. The
// collected heap must hold metadata only: a sixth of what the codes
// store (measured 0.160, ~127 B per entry copy: 104 are the entry in
// its slab, its key and its slot of the shard's hash index — store's
// TestMetaBytesPerEntry repeats those to the byte — and the rest the
// arena's pointer back to the entry and the nodes' maps and output
// buffers, which keep the size of their largest batch and are why one
// run in five reads up to 0.171; it was 0.30 and ~230 B when a table
// was a Go map of heap entries with a second index beside it, and 1.37
// with values on the heap). And heap plus arena must stay near the
// measured 1.62, which is not the codes' rate and cannot be at 1 KiB
// and this size: the metadata is the 0.16, and of the arena's 13.6 MiB,
// 6 are the Rep values that stayed, 3.3 the SRS blocks and parity —
// written into chunks the Rep tables evacuated as their keys left,
// where until PR 21 the freed slots stayed mapped and the sum was 1.98
// — and the rest is slack that does not grow with the data: each of the
// nine Rep tables keeps up to store's evacuateAt (four chunks) of freed
// slots and a newest chunk, each region under a chunk per block, and
// the pool whatever chunks nobody has taken yet (logged below). The
// benchmark's tables are four times these, so the same slack weighs a
// quarter there.
func TestBytesPerStoredByte(t *testing.T) {
	const (
		keys      = 4096
		valueSize = 1 << 10
		mgRep     = proto.MemgestID(1)
		mgSRS     = proto.MemgestID(2)
		heapBound = 0.175 // measured 0.160 to 0.171 in forty runs, plus 3 %
		sumBound  = 1.68  // measured 1.62 to 1.63, plus 3 %
	)
	cl, err := core.StartCluster(core.ClusterSpec{
		Shards: 3, Redundant: 2,
		Memgests: []proto.Scheme{proto.Rep(3, 3), proto.SRS(3, 2, 3)},
		Opts:     core.Options{BlockSize: 2 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c, err := client.Dial(cl.Fabric, []string{core.NodeAddr(0)}, client.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := func(i int) string { return fmt.Sprintf("%08x", i) }
	value := func(i int) []byte {
		v := bytes.Repeat([]byte{byte(i)}, valueSize)
		copy(v, key(i))
		return v
	}
	moved := func(i int) bool { return (i>>1)&1 == 0 }

	var idle, loaded runtime.MemStats
	runtime.GC()
	runtime.GC() // the second empties what the buffer pools kept through the first
	runtime.ReadMemStats(&idle)
	arenaIdle := store.ArenaBytesBacked()

	p := c.NewPipeline(32)
	for i := 0; i < keys; i++ {
		p.PutIn(key(i), value(i), mgRep)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	var repBytes, srsBytes float64
	for i := 0; i < keys; i++ {
		if !moved(i) {
			repBytes += valueSize
			continue
		}
		srsBytes += valueSize
		if _, err := c.MoveIf(key(i), mgRep, mgSRS); err != nil {
			t.Fatalf("move %s: %v", key(i), err)
		}
	}
	for i := 0; i < keys; i++ {
		got, _, err := c.Get(key(i))
		if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("get %s: %v, %d bytes", key(i), err, len(got))
		}
	}

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&loaded)
	const mib = 1 << 20
	heap := float64(loaded.HeapAlloc) - float64(idle.HeapAlloc)
	arena := float64(store.ArenaBytesBacked() - arenaIdle)
	ideal := 3*repBytes + 5.0/3*srsBytes
	t.Logf("live heap %+.2f MiB (%.3f x) + arena %+.2f MiB (%.2f of them pooled) = %.2f x the codes' %.2f MiB",
		heap/mib, heap/ideal, arena/mib, float64(store.ArenaBytesPooled())/mib, (heap+arena)/ideal, ideal/mib)
	if heap > heapBound*ideal {
		t.Errorf("the collected heap grew by %.3f x what the codes store, want <= %.3f: it should hold metadata only", heap/ideal, heapBound)
	}
	if ratio := (heap + arena) / ideal; ratio > sumBound {
		t.Errorf("the loaded cluster holds %.2f x what its codes store, want <= %.2f", ratio, sumBound)
	}
}
