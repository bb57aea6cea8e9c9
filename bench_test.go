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
// them counted together (Rep(1,3): nobody else takes part): 3 each —
// the client's request and reply, and the value a Get returns or a
// Put's decoded key. A Get is held to 3.5, half an allocation over
// what it makes, and a Put to 3. With a goroutine, a future,
// a reply channel and a cleanup closure per call they were 13 and 17; a
// put was 10 until PR 30, while the coordinator allocated the entry,
// kept the decoded key for it and copied the key's version list to
// collect the old version, and 6 and 7 while a node allocated every
// message it decoded or sent. (Like the byte pins below, not a figure
// for -race builds, where sync.Pool drops a quarter of what it is
// given.)
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
	if get > 3.5 || put > 3 {
		t.Errorf("a Get allocates %v times and a 1 KiB Put %v, want at most 3.5 and 3", get, put)
	}
}

// TestRep3OpAllocs pins the garbage one synchronous Rep(3,3) operation
// leaves, client and all five nodes counted (memnet): a first put, an
// overwrite, a get and a move of a key from Rep(3,3) to SRS(3,2,3).
// What is left is the client's request and reply and a decoded key:
// a message lives for one handler or one encode and goes back to its
// free list, the coordinator's commit bookkeeping is held by value, and
// a put's replica set is computed when the configuration installs.
// Before that a first put allocated 29.0 times, an overwrite 36.1 times
// (1114 B), a get 6.0 times and a move 32.5 times.
func TestRep3OpAllocs(t *testing.T) {
	cl, err := ring.Start(ring.Config{
		Shards: 3, Redundant: 2,
		Memgests:  []ring.Scheme{ring.Rep(3, 3), ring.SRS(3, 2, 3)},
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
	const runs = 400
	val := make([]byte, 1024)
	keys := benchKeys("pin", runs+1) // allocsPerRun's warm-up call takes one
	warm := benchKeys("warm", 32)
	for _, k := range warm { // the tables, heaps and pools have their slots
		if _, err := c.Put(k, val); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Move(k, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Move(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	i := 0 // each op of a phase on the next key
	each := func(op func(key string) error) func() {
		return func() {
			if err := op(keys[i%len(keys)]); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	put := each(func(k string) error { _, err := c.Put(k, val); return err })
	first, _ := allocsPerRun(runs, put)
	i = 0
	over, overBytes := allocsPerRun(runs, put)
	i = 0
	get, _ := allocsPerRun(runs, each(func(k string) error { _, _, err := c.Get(k); return err }))
	i = 0
	move, _ := allocsPerRun(runs, each(func(k string) error { _, err := c.Move(k, 2); return err }))
	t.Logf("Rep(3,3) 1 KiB: first put %.1f allocations, overwrite %.1f (%.0f B), get %.1f, move to SRS(3,2,3) %.1f",
		first, over, overBytes, get, move)
	for _, p := range []struct {
		what      string
		got, want float64
	}{
		{"a first put's allocations", first, 4},
		{"an overwrite's allocations", over, 3.5},
		{"an overwrite's bytes", overBytes, 200},
		{"a get's allocations", get, 3.5},
		{"a move's allocations", move, 5.8},
	} {
		if p.got > p.want {
			t.Errorf("%s: %.1f, want at most %g", p.what, p.got, p.want)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun with bytes: the allocations and
// heap bytes the whole process makes per call of f, every goroutine
// counted — which is what a pin on a path that crosses goroutines
// (sender, read loop, runner) needs. Like AllocsPerRun it runs on one
// processor, where a buffer or message given back to a pool by one
// goroutine is the one the next taker finds. A collection during the
// runs may cost the pools a few refills; the pins below leave room for
// that and none for a value-sized allocation per operation.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // reach steady state: connections dialled, pools and heaps warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// The allocation pins of the 16 KiB puts: the client's request and
// reply and the put's decoded key; and of the SRS get, whose value the
// client returns. Each is the most of 30 runs on 2 vCPUs (ten of them
// beside two busy processes) plus 0.5: room for a pool refill, none for
// one more allocation per operation on one node.
const srsPutAllocs, repPutAllocs, srsGetAllocs = 3.55, 3.6, 3.7

// srsBurstBufBytes bounds what the buffer pool may allocate in
// TestValuePathAllocs' tcp srs burst.
const srsBurstBufBytes = 2 << 20

// startRunners boots the five nodes of a 3+2 cluster of one memgest on
// fabric, each on its own runner (on a free loopback port when fabric
// is tcp), and dials a client to them. stop closes the client and stops
// the runners.
func startRunners(t *testing.T, fabric transport.Fabric, sc proto.Scheme, opts core.Options) (c *client.Client, stop func()) {
	t.Helper()
	cfg, err := core.BootConfig(core.ClusterSpec{Shards: 3, Redundant: 2, Memgests: []proto.Scheme{sc}})
	if err != nil {
		t.Fatal(err)
	}
	var runners []*core.Runner
	stop = func() {
		if c != nil {
			c.Close()
		}
		for _, r := range runners {
			r.Stop()
		}
	}
	for _, id := range cfg.AllNodes() {
		if tcp, ok := fabric.(*transport.TCPFabric); ok {
			tcp.Map(core.NodeAddr(id), freePort(t))
		}
		r, err := core.StartRunner(core.New(id, cfg.Clone(), opts), fabric, 0)
		if err != nil {
			stop()
			t.Fatal(err)
		}
		runners = append(runners, r)
	}
	if c, err = client.Dial(fabric, []string{core.NodeAddr(0)}, client.Options{Timeout: 10 * time.Second}); err != nil {
		stop()
		t.Fatal(err)
	}
	return c, stop
}

// freePort returns a loopback address nothing listens on yet.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr()
}

// TestValuePathAllocs pins the single-copy value path end to end: with
// 16 KiB values, neither a TCP round trip nor a whole SRS(3,2,3) put —
// client, coordinator and both parity nodes together — allocates
// anything near a value's size. Before the pooled frame reader, the
// vectored frame write and the decode views, each of these allocated
// several values' worth per operation. What is left is the client's
// request and reply and the put's decoded key: about 110 B for an SRS
// put and 100 B for a Rep(2,3) one (1430 and 1075 B until PR 30, when
// each node's copy of the entry and of its key were heap objects, and
// 1084 and 822 B while every message a node decoded or sent was a heap
// object).
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
		allocs, perOp := allocsPerRun(200, func() {
			if err := a.Send("pin-b", append(transport.AcquireBufSize(size), val...)); err != nil {
				t.Fatal(err)
			}
			p, err := a.Recv()
			if err != nil {
				t.Fatal(err)
			}
			transport.ReleaseBuf(p.Payload)
		})
		t.Logf("tcp echo: %.2f allocations, %.0f B per round trip", allocs, perOp)
		if perOp > size/4 {
			t.Errorf("16 KiB echo over loopback TCP allocates %.0f B per round trip, want < %d", perOp, size/4)
		}
		// A frame write that allocates (a callback made per write) costs
		// a few allocations per round trip and next to no bytes.
		if allocs >= 0.1 {
			t.Errorf("16 KiB echo over loopback TCP makes %.2f allocations per round trip, want < 0.1", allocs)
		}
	})

	// overwrites of every key of a warm cluster of one memgest, or gets
	// of them: the allocations and bytes per operation.
	perOp := func(t *testing.T, cfg ring.Config, get bool) (allocs, bytes float64) {
		cl, err := ring.Start(cfg)
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
		for r := 0; r < 8; r++ { // every table and heap has its slots, every pool its buffers
			for _, k := range keys {
				if _, err := c.Put(k, val); err != nil {
					t.Fatal(err)
				}
			}
		}
		i := 0
		return allocsPerRun(200, func() {
			var err error
			if k := keys[i%len(keys)]; get {
				_, _, err = c.Get(k)
			} else {
				_, err = c.Put(k, val)
			}
			if err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	srs := ring.Config{Shards: 3, Redundant: 2, Memgests: []ring.Scheme{ring.SRS(3, 2, 3)}, BlockSize: 4 << 20}

	t.Run("srs put", func(t *testing.T) {
		allocs, bytes := perOp(t, srs, false)
		t.Logf("srs put: %.2f allocations, %.0f B per put", allocs, bytes)
		if bytes > 250 || allocs > srsPutAllocs {
			t.Errorf("16 KiB SRS(3,2,3) put over memnet allocates %.2f times, %.0f B, across all five nodes and the client, want at most %.2f times and 250 B", allocs, bytes, srsPutAllocs)
		}
	})

	// A get returns the value: the client's copy is the one value-sized
	// allocation. The coordinator reads the value out of its heap into
	// a pooled buffer.
	t.Run("srs get", func(t *testing.T) {
		allocs, bytes := perOp(t, srs, true)
		t.Logf("srs get: %.2f allocations, %.0f B per get", allocs, bytes)
		if bytes > size+250 || allocs > srsGetAllocs {
			t.Errorf("16 KiB SRS(3,2,3) get over memnet allocates %.2f times, %.0f B, want at most %.2f times and %d B", allocs, bytes, srsGetAllocs, size+250)
		}
	})

	// A replicated put used to allocate the value once per copy kept, on
	// the coordinator and on each replica. The copies now go into slots
	// of the tables' arenas and the RepAppend carries a pooled copy:
	// nothing value-sized is left. Rep(2,3) and not Rep(3,3): with one
	// replica the put waits for every copy, so no replica lags behind
	// the loop holding packets that the pool then has to replace.
	t.Run("rep put", func(t *testing.T) {
		allocs, bytes := perOp(t, ring.Config{Shards: 3, Redundant: 2, Memgests: []ring.Scheme{ring.Rep(2, 3)}}, false)
		t.Logf("rep put: %.2f allocations, %.0f B per put", allocs, bytes)
		if bytes > 200 || allocs > repPutAllocs {
			t.Errorf("16 KiB Rep(2,3) put over memnet allocates %.2f times, %.0f B, across all five nodes and the client, want at most %.2f times and 200 B", allocs, bytes, repPutAllocs)
		}
	})

	// The same Rep(3,3) overwrite through five runners over memnet and
	// over loopback TCP: on TCP each packet goes socket -> the node's
	// read buffer -> Deliver in place -> Pack -> writev, and none of it
	// may allocate, so the two differ by at most 0.1 allocations a put.
	t.Run("tcp rep put", func(t *testing.T) {
		overwrite := func(fabric transport.Fabric) float64 {
			c, stop := startRunners(t, fabric, proto.Rep(3, 3), core.Options{})
			defer stop()
			val := make([]byte, 1<<10)
			keys := benchKeys("pin", 32)
			i := 0
			put := func() {
				if _, err := c.Put(keys[i%len(keys)], val); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for i < 8*len(keys) { // every table has its slots, every pool its buffers
				put()
			}
			allocs, _ := allocsPerRun(1000, put)
			return allocs
		}
		mem, tcp := overwrite(transport.NewMemFabric(0)), overwrite(transport.NewTCPFabric())
		t.Logf("1 KiB Rep(3,3) overwrite: %.2f allocations over memnet, %.2f over tcp", mem, tcp)
		if tcp > mem+0.1 {
			t.Errorf("a 1 KiB Rep(3,3) overwrite allocates %.2f times over tcp and %.2f over memnet, want at most 0.1 more", tcp, mem)
		}
	})

	// 512 first 16 KiB puts to SRS(3,2,3), 64 in flight, through five
	// runners and a client over loopback TCP: the pool must not have to
	// make much more than a working set of packet buffers. While a
	// batched packet could grow to hundreds of KiB, most client packets
	// and coordinator batches of such a burst were read into buffers of
	// their own, and the pool made 4.4-6.1 MB of buffers for it on a
	// 2-vCPU host; with every packet that carries more than one message
	// within transport.MaxPacket it makes 0.6-0.8 MB.
	t.Run("tcp srs burst", func(t *testing.T) {
		const puts, inFlight = 512, 64
		// Two processors, as CI's hosts have: the pool keeps buffers per
		// processor, and each more makes more misses.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		c, stop := startRunners(t, transport.NewTCPFabric(), proto.SRS(3, 2, 3), core.Options{BlockSize: 4 << 20})
		defer stop()
		runtime.GC()
		runtime.GC() // the pool starts empty, whatever ran before
		before := transport.Metrics.BufAllocBytes.Load()
		var wg sync.WaitGroup
		for g := 0; g < inFlight; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < puts; i += inFlight {
					if _, err := c.Put(fmt.Sprintf("burst-%d", i), val); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		made := transport.Metrics.BufAllocBytes.Load() - before
		t.Logf("tcp srs burst: the buffer pool made %.2f MB", float64(made)/1e6)
		if made > srsBurstBufBytes {
			t.Errorf("512 16 KiB SRS(3,2,3) puts at 64 in flight made the buffer pool allocate %.2f MB, want at most %.1f MB", float64(made)/1e6, float64(srsBurstBufBytes)/1e6)
		}
	})

	// A durable node encodes each WAL record into one scratch frame its
	// store keeps, so the durable tier adds no value-sized garbage to a put:
	// a 1 KiB Rep(3,3) put allocated 5078 B on a durable cluster against
	// 1121 B on a volatile one while every record had a buffer of its own.
	t.Run("durable rep put", func(t *testing.T) {
		perPut := func(dataDir string) (allocs, bytes float64) {
			cl, err := core.StartCluster(core.ClusterSpec{
				Shards: 3, Redundant: 2,
				Memgests: []proto.Scheme{proto.Rep(3, 3)},
				DataDir:  dataDir,
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
			val := make([]byte, 1<<10)
			keys := benchKeys("pin", 32)
			for r := 0; r < 8; r++ { // every table has its slots, every pool its buffers
				for _, k := range keys {
					if _, err := c.Put(k, val); err != nil {
						t.Fatal(err)
					}
				}
			}
			i := 0
			return allocsPerRun(200, func() {
				if _, err := c.Put(keys[i%len(keys)], val); err != nil {
					t.Fatal(err)
				}
				i++
			})
		}
		volatile, volatileBytes := perPut("")
		durable, durableBytes := perPut(t.TempDir())
		t.Logf("1 KiB Rep(3,3) put: %.2f allocations, %.0f B volatile; %.2f allocations, %.0f B durable", volatile, volatileBytes, durable, durableBytes)
		if durable > volatile+0.5 || durableBytes > volatileBytes+256 {
			t.Errorf("a 1 KiB Rep(3,3) put allocates %.2f times, %.0f B on a durable cluster and %.2f times, %.0f B on a volatile one, want at most 0.5 times and 256 B more", durable, durableBytes, volatile, volatileBytes)
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
