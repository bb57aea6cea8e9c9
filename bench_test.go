package ring_test

// The benchmark harness of the reproduction: one benchmark per table
// and figure of the paper's evaluation (driving the calibrated
// discrete-event simulator or the analytic models), plus live
// benchmarks that measure the actual Go implementation end to end over
// the in-memory fabric. EXPERIMENTS.md records paper-vs-measured
// values for each.
//
// The figure benchmarks report their headline numbers via
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the
// whole evaluation.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ring"
	"ring/internal/client"
	"ring/internal/core"
	"ring/internal/experiments"
	"ring/internal/gf"
	"ring/internal/proto"
	"ring/internal/reliability"
	"ring/internal/transport"
	"ring/internal/workload"
)

// benchBurst keeps the simulated saturation windows short enough for
// the full suite to run in minutes while still far exceeding every
// scheme's queue drain time.
const benchBurst = 20 * time.Millisecond

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchBurst)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].PutLatencyX, "rep3-putlat-x")
		b.ReportMetric(rows[2].PutLatencyX, "rs32-putlat-x")
		b.ReportMetric(rows[1].PutThroughputX, "rep3-tput-x")
		b.ReportMetric(rows[2].PutThroughputX, "rs32-tput-x")
	}
}

func BenchmarkFig2Reliability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig2Reliability(reliability.Params{})
		for _, p := range pts {
			if p.K == 3 && p.M == 1 && p.S == 3 {
				b.ReportMetric(p.Nines, "rs31-nines")
			}
			if p.K == 3 && p.M == 1 && p.S == 7 {
				b.ReportMetric(p.Nines, "srs317-nines")
			}
		}
	}
}

func BenchmarkFig7PutLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig7Put(15)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.Label == "REP1" || s.Label == "SRS32" {
				// 1 KiB is index 9 (sizes 2^1..2^11).
				b.ReportMetric(float64(s.Points[9].Median)/1e3, s.Label+"-put1KiB-µs")
			}
		}
	}
}

func BenchmarkFig7GetLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig7Get(15)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.Points[9].Median)/1e3, "get1KiB-µs")
	}
}

func BenchmarkFig7cBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig7c()
		for _, s := range series {
			if s.Label == "memcached put" {
				b.ReportMetric(float64(s.Points[9].Median)/1e3, "memcached-put-µs")
			}
			if s.Label == "RAMCloud put" {
				b.ReportMetric(float64(s.Points[9].Median)/1e3, "ramcloud-put-µs")
			}
		}
	}
}

func BenchmarkFig8MoveLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig8Move(15)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.Label == "to REP1" || s.Label == "to SRS32" {
				name := strings.ReplaceAll(s.Label, " ", "-")
				b.ReportMetric(float64(s.Points[9].Median)/1e3, name+"-1KiB-µs")
			}
		}
	}
}

func BenchmarkFig9Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		samples, err := experiments.Fig9(4, 400e3, benchBurst)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range samples {
			if s.Clients == 4 && (s.Label == "REP1" || s.Label == "REP3" || s.Label == "SRS32") {
				b.ReportMetric(s.ReqsPerSec/1e3, s.Label+"-Kreq/s")
			}
		}
	}
}

func BenchmarkFig10Pricing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig10Pricing()
		for _, r := range rows {
			if r.Trace == "Financial1" && r.Class.String() == "cold" {
				b.ReportMetric(r.Total, "financial1-cold-x")
			}
		}
	}
}

func BenchmarkFig11Mixes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(benchBurst)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Label == "REP1" && r.Mix == (workload.Mix{Get: 100, Put: 0}) {
				b.ReportMetric(r.ReqsPerSec/1e3, "get-only-Kreq/s")
			}
			if r.Label == "REP1" && r.Mix == (workload.Mix{Get: 0, Put: 100}) {
				b.ReportMetric(r.ReqsPerSec/1e3, "rep1-put-Kreq/s")
			}
		}
	}
}

func BenchmarkFig12Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig12Recovery([]int{512, 2048, 8192})
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(float64(last.Latency)/1e3, "recovery-µs")
		b.ReportMetric(float64(last.MetaBytes)/1024, "metadata-KiB")
	}
}

func BenchmarkFig13BlockRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig13BlockRecovery([]int{4096, 65536})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.BlockSize == 65536 {
				b.ReportMetric(float64(p.Latency)/1e3, p.Scheme+"-64KiB-µs")
			}
		}
	}
}

func BenchmarkFig16Availability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig16Availability(reliability.Params{})
		for _, p := range pts {
			if p.K == 2 && p.M == 1 && p.S == 3 {
				b.ReportMetric(p.Nines, "srs213-nines")
			}
		}
	}
}

// ----------------------------- ablation benchmarks -------------------

func BenchmarkAblationMoveVsMigrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationMoveVsMigrate(2048)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MoveWireBytes), "move-wire-B")
		b.ReportMetric(float64(res.MigrateWireBytes), "migrate-wire-B")
		b.ReportMetric(float64(res.MoveLatency)/1e3, "move-µs")
		b.ReportMetric(float64(res.MigrateLatency)/1e3, "migrate-µs")
	}
}

func BenchmarkAblationQuorumVsSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationQuorumVsSync(4, 1024)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.QuorumPut)/1e3, "quorum-put-µs")
		b.ReportMetric(float64(res.SyncPut)/1e3, "sync-put-µs")
	}
}

func BenchmarkAblationBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.AblationBalance()
		b.ReportMetric(res.SingleGroup, "single-group-imbalance")
		b.ReportMetric(res.Rotated, "rotated-imbalance")
	}
}

// ----------------------------- zero-alloc pins -----------------------

// TestHotpathZeroAlloc pins the per-operation hot paths introduced by
// the word-wide kernels and memgest-group sharding to zero heap
// allocations — the suite-level counterpart of the per-package pins,
// so a regression in any layer fails here too.
func TestHotpathZeroAlloc(t *testing.T) {
	const c = 0x57
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	gf.WarmTables(c) // the lazy word table builds once, off the pin
	key := "alloc-pin-key"
	for name, f := range map[string]func(){
		"gf.MulSlice":    func() { gf.MulSlice(c, src, dst) },
		"gf.MulSliceXor": func() { gf.MulSliceXor(c, src, dst) },
		"gf.XorSlice":    func() { gf.XorSlice(src, dst) },
		"core.GroupOf":   func() { _ = core.GroupOf(key, 4) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v per call, want 0", name, n)
		}
	}
}

// TestSyncClientOpAllocs pins what one synchronous operation allocates
// over memnet, the client, the coordinator and the read loops between
// them counted together (Rep(1,3): nobody else takes part): 6 for a
// Get and 7 for a 1 KiB Put. With a goroutine, a future, a reply
// channel and a cleanup closure per call they were 13 and 17; a put
// was 10 until PR 30, while the coordinator allocated the entry, kept
// the decoded key for it and copied the key's version list to collect
// the old version — the entry is a slab slot now, the key the one its
// first version brought, and the versions are walked where they are.
// (Like the byte pins below, not a figure for -race builds, where
// sync.Pool drops a quarter of what it is given.)
func TestSyncClientOpAllocs(t *testing.T) {
	cl, err := ring.Start(ring.Config{Shards: 3, Redundant: 2, Memgests: []ring.Scheme{ring.Rep(1, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	val := make([]byte, 1024)
	keys := benchKeys("pin", 32)
	for _, k := range keys { // first versions: the tables have their slots
		if _, err := c.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	get := testing.AllocsPerRun(500, func() {
		if _, _, err := c.Get(keys[i%len(keys)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	put := testing.AllocsPerRun(500, func() {
		if _, err := c.Put(keys[i%len(keys)], val); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("a Get allocates %v times, a 1 KiB Put %v", get, put)
	if get > 6 || put > 7 {
		t.Errorf("a Get allocates %v times and a 1 KiB Put %v, want at most 6 and 7", get, put)
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the heap bytes
// the whole process allocates per call of f, every goroutine counted —
// which is what a pin on a path that crosses goroutines (sender, read
// loop, runner) needs. A collection during the runs may cost the buffer
// pools a few refills; the pins below leave room for that and none for
// a value-sized allocation per operation.
func allocBytesPerRun(runs int, f func()) float64 {
	f() // reach steady state: connections dialled, pools and heaps warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestValuePathAllocs pins the single-copy value path end to end: with
// 16 KiB values, neither a TCP round trip nor a whole SRS(3,2,3) put —
// client, coordinator and both parity nodes together — allocates
// anything near a value's size. Before the pooled frame reader, the
// vectored frame write and the decode views, each of these allocated
// several values' worth per operation. What is left is messages and
// metadata: an SRS put allocates about 1100 B over its three nodes and
// a Rep(2,3) put 820 B over its two (1430 and 1075 B until PR 30, when
// each node's copy of the entry and of its key were heap objects).
func TestValuePathAllocs(t *testing.T) {
	const size = 16 << 10
	val := make([]byte, size)

	t.Run("tcp echo", func(t *testing.T) {
		f := transport.NewTCPFabric()
		a, err := f.Register("pin-a")
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b, err := f.Register("pin-b")
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		f.Map("pin-b", transport.BoundAddr(b))
		go func() {
			for {
				p, err := b.Recv()
				if err != nil {
					return
				}
				_ = b.Send(p.From, p.Payload)
			}
		}()
		perOp := allocBytesPerRun(200, func() {
			if err := a.Send("pin-b", append(transport.AcquireBufSize(size), val...)); err != nil {
				t.Fatal(err)
			}
			p, err := a.Recv()
			if err != nil {
				t.Fatal(err)
			}
			transport.ReleaseBuf(p.Payload)
		})
		t.Logf("tcp echo: %.0f B per round trip", perOp)
		if perOp > size/4 {
			t.Errorf("16 KiB echo over loopback TCP allocates %.0f B per round trip, want < %d", perOp, size/4)
		}
	})

	t.Run("srs put", func(t *testing.T) {
		cl, err := ring.Start(ring.Config{
			Shards: 3, Redundant: 2,
			Memgests:  []ring.Scheme{ring.SRS(3, 2, 3)},
			BlockSize: 4 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Stop()
		c, err := cl.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		keys := benchKeys("pin", 32)
		for _, k := range keys { // first versions: the heaps reach working size
			if _, err := c.Put(k, val); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		perOp := allocBytesPerRun(200, func() {
			if _, err := c.Put(keys[i%len(keys)], val); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("srs put: %.0f B per put", perOp)
		if perOp > size/4 {
			t.Errorf("16 KiB SRS(3,2,3) put over memnet allocates %.0f B across all five nodes and the client, want < %d", perOp, size/4)
		}
	})

	// A replicated put used to allocate the value once per copy kept, on
	// the coordinator and on each replica. The copies now go into slots
	// of the tables' arenas and the RepAppend carries a pooled copy:
	// nothing value-sized is left. Rep(2,3) and not Rep(3,3): with one
	// replica the put waits for every copy, so no replica lags behind
	// the loop holding packets that the pool then has to replace.
	t.Run("rep put", func(t *testing.T) {
		cl, err := ring.Start(ring.Config{
			Shards: 3, Redundant: 2,
			Memgests: []ring.Scheme{ring.Rep(2, 3)},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Stop()
		c, err := cl.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		keys := benchKeys("pin", 32)
		for _, k := range keys { // first versions: every table has its slots
			if _, err := c.Put(k, val); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		perOp := allocBytesPerRun(200, func() {
			if _, err := c.Put(keys[i%len(keys)], val); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("rep put: %.0f B per put", perOp)
		if perOp > size/4 {
			t.Errorf("16 KiB Rep(2,3) put over memnet allocates %.0f B across all five nodes and the client, want < %d", perOp, size/4)
		}
	})
}

// ------------------------- live (real execution) benchmarks ----------

// liveCluster boots the paper deployment over the in-memory fabric for
// real end-to-end measurements of the Go implementation.
func liveCluster(b *testing.B) (*ring.Cluster, *ring.Client) {
	b.Helper()
	cl, err := ring.Start(ring.Config{
		Shards: 3, Redundant: 2,
		Memgests: []ring.Scheme{
			ring.Rep(1, 3), ring.Rep(3, 3), ring.SRS(2, 1, 3), ring.SRS(3, 2, 3),
		},
		BlockSize: 4 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Stop)
	c, err := cl.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return cl, c
}

// benchKeys pre-formats the key working set so the timed loops measure
// the store, not fmt.
func benchKeys(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return keys
}

func benchLivePut(b *testing.B, mg ring.MemgestID, size int) {
	_, c := liveCluster(b)
	val := make([]byte, size)
	keys := benchKeys("k", 4096)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PutIn(keys[i%4096], val, mg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLivePutREP1_1KiB(b *testing.B)  { benchLivePut(b, 1, 1024) }
func BenchmarkLivePutREP3_1KiB(b *testing.B)  { benchLivePut(b, 2, 1024) }
func BenchmarkLivePutSRS21_1KiB(b *testing.B) { benchLivePut(b, 3, 1024) }
func BenchmarkLivePutSRS32_1KiB(b *testing.B) { benchLivePut(b, 4, 1024) }

func BenchmarkLiveGet1KiB(b *testing.B) {
	_, c := liveCluster(b)
	val := make([]byte, 1024)
	for i := 0; i < 256; i++ {
		if _, err := c.PutIn(fmt.Sprintf("g%d", i), val, 4); err != nil {
			b.Fatal(err)
		}
	}
	keys := benchKeys("g", 256)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Get(keys[i%256]); err != nil {
			b.Fatal(err)
		}
	}
}

// liveCallers runs op(0..b.N-1) on 16 goroutines calling one client:
// 16 requests in flight, which the paper's throughput numbers (Fig 9,
// Table 1) assume. Compare against the sequential BenchmarkLivePut*
// loops above to see the latency-bound vs fabric-bound gap.
func liveCallers(b *testing.B, op func(i int) error) {
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < b.N; i += 16 {
				if err := op(i); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func benchLiveCallersPut(b *testing.B, mg ring.MemgestID, size int) {
	_, c := liveCluster(b)
	val := make([]byte, size)
	keys := benchKeys("k", 4096)
	b.SetBytes(int64(size))
	liveCallers(b, func(i int) error {
		_, err := c.PutIn(keys[i%4096], val, mg)
		return err
	})
}

func BenchmarkLiveCallersPut_REP3(b *testing.B)  { benchLiveCallersPut(b, 2, 1024) }
func BenchmarkLiveCallersPut_SRS32(b *testing.B) { benchLiveCallersPut(b, 4, 1024) }

// BenchmarkLiveCallersMixed_SRS32 runs the paper's 95/5 get/put mix with
// 16 callers against SRS32.
func BenchmarkLiveCallersMixed_SRS32(b *testing.B) {
	_, c := liveCluster(b)
	val := make([]byte, 1024)
	for i := 0; i < 256; i++ {
		if _, err := c.PutIn(fmt.Sprintf("g%d", i), val, 4); err != nil {
			b.Fatal(err)
		}
	}
	keys := benchKeys("g", 256)
	b.SetBytes(1024)
	liveCallers(b, func(i int) error {
		if i%20 == 0 {
			_, err := c.PutIn(keys[i%256], val, 4)
			return err
		}
		_, _, err := c.Get(keys[i%256])
		return err
	})
}

// BenchmarkClientBurstGetTCP is the client as the benchmark's preload
// drives it: 32 callers on one client, synchronous 1 KiB gets against
// the five-node deployment over loopback TCP. reqs/packet is what the
// client's outboxes made of them.
func BenchmarkClientBurstGetTCP(b *testing.B) {
	const callers = 32
	spec := core.ClusterSpec{Shards: 3, Redundant: 2, Memgests: []proto.Scheme{proto.Rep(3, 3)}}
	cfg, err := core.BootConfig(spec)
	if err != nil {
		b.Fatal(err)
	}
	// Every node listens on a port the kernel picks, and the fabric
	// knows them all before the first runner sends.
	fabric := transport.NewTCPFabric()
	eps := make(map[proto.NodeID]transport.Endpoint)
	for _, id := range cfg.AllNodes() {
		addr := core.NodeAddr(id)
		fabric.Map(addr, "127.0.0.1:0")
		ep, err := fabric.Register(addr)
		if err != nil {
			b.Fatal(err)
		}
		fabric.Map(addr, transport.BoundAddr(ep))
		eps[id] = ep
	}
	for id, ep := range eps {
		r, err := core.StartRunner(core.New(id, cfg.Clone(), spec.Opts), registered{ep}, 10*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(r.Stop)
	}
	c, err := client.Dial(fabric, []string{core.NodeAddr(0)}, client.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	keys := benchKeys("burst", 1024)
	val := make([]byte, 1024)
	for _, k := range keys {
		if _, err := c.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
	requests, packets := client.Metrics.Requests.Load(), client.Metrics.Packets.Load()
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	b.SetBytes(1024)
	b.ResetTimer()
	for s := 0; s < callers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i > b.N {
					return
				}
				if _, _, err := c.Get(keys[i%len(keys)]); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	requests, packets = client.Metrics.Requests.Load()-requests, client.Metrics.Packets.Load()-packets
	b.ReportMetric(float64(requests)/float64(packets), "reqs/packet")
}

// registered hands StartRunner an endpoint that is already listening.
type registered struct{ ep transport.Endpoint }

func (r registered) Register(string) (transport.Endpoint, error) { return r.ep, nil }

func BenchmarkLiveMoveSRS32toREP1_1KiB(b *testing.B) {
	_, c := liveCluster(b)
	val := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("m%d", i%1024)
		b.StopTimer()
		if _, err := c.PutIn(key, val, 4); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := c.Move(key, 1); err != nil {
			b.Fatal(err)
		}
	}
}
