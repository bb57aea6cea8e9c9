package experiments

import (
	"testing"
	"time"

	"ring/internal/reliability"
	"ring/internal/workload"
)

const testBurst = 10 * time.Millisecond

func findSeries(series []Series, label string) Series {
	for _, s := range series {
		if s.Label == label {
			return s
		}
	}
	return Series{}
}

func TestFig7PutShapes(t *testing.T) {
	series, err := Fig7Put(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 7 {
		t.Fatalf("%d series", len(series))
	}
	rep1 := findSeries(series, "REP1")
	rep3 := findSeries(series, "REP3")
	srs32 := findSeries(series, "SRS32")
	srs21 := findSeries(series, "SRS21")
	srs31 := findSeries(series, "SRS31")
	for i := range rep1.Points {
		if !(rep1.Points[i].Median < rep3.Points[i].Median) {
			t.Fatalf("size %d: REP1 %v !< REP3 %v", rep1.Points[i].Size, rep1.Points[i].Median, rep3.Points[i].Median)
		}
		if !(rep3.Points[i].Median < srs32.Points[i].Median) {
			t.Fatalf("size %d: REP3 %v !< SRS32 %v", rep1.Points[i].Size, rep3.Points[i].Median, srs32.Points[i].Median)
		}
		// SRS21 == SRS31 (both one parity node).
		r := float64(srs21.Points[i].Median) / float64(srs31.Points[i].Median)
		if r < 0.9 || r > 1.1 {
			t.Fatalf("size %d: SRS21 %v vs SRS31 %v", rep1.Points[i].Size, srs21.Points[i].Median, srs31.Points[i].Median)
		}
	}
	// Latency grows with size, and the paper's band holds at 2 KiB:
	// REP1 a few µs, SRS32 below 30 µs.
	last := srs32.Points[len(srs32.Points)-1]
	if last.Median > 30*time.Microsecond {
		t.Fatalf("SRS32 put(2KiB) = %v, paper plots < 30µs", last.Median)
	}
	if rep1.Points[0].Median > 10*time.Microsecond {
		t.Fatalf("REP1 put(2B) = %v, want ~5µs", rep1.Points[0].Median)
	}
}

func TestFig7GetFlat(t *testing.T) {
	get, err := Fig7Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if got := get.Points[0].Median; got < 2*time.Microsecond || got > 10*time.Microsecond {
		t.Fatalf("get(2B) = %v, want ~5µs", got)
	}
	// Growth across sizes stays modest (bandwidth term only).
	first, lastP := get.Points[0].Median, get.Points[len(get.Points)-1].Median
	if float64(lastP)/float64(first) > 2.5 {
		t.Fatalf("get latency tripled with size: %v -> %v", first, lastP)
	}
}

func TestFig7cBands(t *testing.T) {
	series := Fig7c()
	if len(series) != 8 {
		t.Fatalf("%d baseline series", len(series))
	}
	mc := findSeries(series, "memcached put")
	if mc.Points[5].Median < 40*time.Microsecond {
		t.Fatalf("memcached put = %v, want ~55µs", mc.Points[5].Median)
	}
}

func TestFig8MoveShapes(t *testing.T) {
	series, err := Fig8Move(5)
	if err != nil {
		t.Fatal(err)
	}
	toRep1 := findSeries(series, "to REP1")
	// Moving to the unreliable scheme is nearly size-independent
	// (Figure 8's observation).
	first := toRep1.Points[0].Median
	lastP := toRep1.Points[len(toRep1.Points)-1].Median
	if float64(lastP)/float64(first) > 1.5 {
		t.Fatalf("move-to-REP1 latency grew %vx with size", float64(lastP)/float64(first))
	}
	// Destination SRS32 is the most expensive move target.
	toSRS32 := findSeries(series, "to SRS32")
	toRep2 := findSeries(series, "to REP2")
	n := len(toSRS32.Points) - 1
	if !(toSRS32.Points[n].Median > toRep2.Points[n].Median) {
		t.Fatalf("move to SRS32 (%v) should exceed move to REP2 (%v)",
			toSRS32.Points[n].Median, toRep2.Points[n].Median)
	}
}

func TestSaturatedThroughputOrdering(t *testing.T) {
	rep1, err := SaturatedThroughput(MemgestID("REP1"), workload.Mix{Put: 100}, 1024, testBurst)
	if err != nil {
		t.Fatal(err)
	}
	rep3, err := SaturatedThroughput(MemgestID("REP3"), workload.Mix{Put: 100}, 1024, testBurst)
	if err != nil {
		t.Fatal(err)
	}
	srs32, err := SaturatedThroughput(MemgestID("SRS32"), workload.Mix{Put: 100}, 1024, testBurst)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 9: REP1 ~1.5M/s aggregate; REP3 ~2x slower; SRS32 ~4.3x.
	if rep1 < 700e3 || rep1 > 3e6 {
		t.Fatalf("REP1 aggregate put throughput %.0f/s outside paper band (~1.5M)", rep1)
	}
	r3 := rep1 / rep3
	if r3 < 1.4 || r3 > 3.5 {
		t.Fatalf("REP1/REP3 = %.2f, paper says ~2x", r3)
	}
	rs := rep1 / srs32
	if rs < 2.5 || rs > 7 {
		t.Fatalf("REP1/SRS32 = %.2f, paper says ~4.3x", rs)
	}
	if !(rep1 > rep3 && rep3 > srs32) {
		t.Fatal("throughput ordering violated")
	}
}

func TestFig9Series(t *testing.T) {
	samples, err := Fig9(4, 400e3, testBurst)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string][]Fig9Sample{}
	for _, s := range samples {
		byLabel[s.Label] = append(byLabel[s.Label], s)
	}
	rep1 := byLabel["REP1"]
	if len(rep1) != 4 {
		t.Fatalf("REP1 has %d samples", len(rep1))
	}
	// Throughput is non-decreasing in clients and eventually capped.
	for i := 1; i < len(rep1); i++ {
		if rep1[i].ReqsPerSec < rep1[i-1].ReqsPerSec {
			t.Fatal("REP1 ramp decreased")
		}
	}
	// At 4 clients REP1 beats SRS32.
	srs := byLabel["SRS32"]
	if rep1[3].ReqsPerSec <= srs[3].ReqsPerSec {
		t.Fatal("REP1 should beat SRS32 at saturation")
	}
	// Baselines appear.
	if len(byLabel["memcached"]) == 0 || len(byLabel["Cocytus"]) == 0 {
		t.Fatal("baseline series missing")
	}
}

func TestFig11Matrix(t *testing.T) {
	rows, err := Fig11(testBurst)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("%d rows, want 16", len(rows))
	}
	cell := func(label string, mix workload.Mix) float64 {
		for _, r := range rows {
			if r.Label == label && r.Mix == mix {
				return r.ReqsPerSec
			}
		}
		t.Fatalf("missing cell %s %v", label, mix)
		return 0
	}
	getOnly := workload.Mix{Get: 100, Put: 0}
	putOnly := workload.Mix{Get: 0, Put: 100}
	// Get-only throughput is scheme-independent (same code path).
	g1, g32 := cell("REP1", getOnly), cell("SRS32", getOnly)
	if r := g1 / g32; r < 0.9 || r > 1.1 {
		t.Fatalf("get-only throughput differs: REP1 %.0f vs SRS32 %.0f", g1, g32)
	}
	// Put-only: REP1 highest.
	if !(cell("REP1", putOnly) > cell("SRS32", putOnly)) {
		t.Fatal("REP1 put-only should beat SRS32")
	}
	// More puts in the mix lowers throughput for reliable schemes.
	if !(cell("SRS32", getOnly) > cell("SRS32", putOnly)) {
		t.Fatal("SRS32 get-only should beat put-only")
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(testBurst)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	simple, rep3, rs32 := rows[0], rows[1], rows[2]
	if simple.PutLatencyX != 1 || simple.PutThroughputX != 1 || simple.StorageCostX != 1 {
		t.Fatalf("simple row not normalized: %+v", simple)
	}
	if rep3.Tolerated != 2 || rs32.Tolerated != 2 {
		t.Fatal("durability tolerance wrong")
	}
	// Paper: Rep(3) 2x latency, 0.5x throughput, 3x storage;
	// RS(3,2) 3.4x latency, 0.31x throughput, 1.66x storage.
	if rep3.PutLatencyX < 1.3 || rep3.PutLatencyX > 3.2 {
		t.Fatalf("Rep(3) latency %.2fx, paper ~2x", rep3.PutLatencyX)
	}
	if rs32.PutLatencyX < 2 || rs32.PutLatencyX > 5.5 {
		t.Fatalf("RS(3,2) latency %.2fx, paper ~3.4x", rs32.PutLatencyX)
	}
	if rep3.PutThroughputX < 0.3 || rep3.PutThroughputX > 0.75 {
		t.Fatalf("Rep(3) throughput %.2fx, paper ~0.5x", rep3.PutThroughputX)
	}
	if rs32.PutThroughputX < 0.12 || rs32.PutThroughputX > 0.45 {
		t.Fatalf("RS(3,2) throughput %.2fx, paper ~0.31x", rs32.PutThroughputX)
	}
	if rs32.StorageCostX < 1.6 || rs32.StorageCostX > 1.7 {
		t.Fatalf("RS(3,2) storage %.2fx, want 1.66x", rs32.StorageCostX)
	}
}

func TestFig2AndFig16(t *testing.T) {
	pts := Fig2Reliability(reliability.Params{})
	if len(pts) == 0 {
		t.Fatal("no fig2 points")
	}
	anchors := map[[2]int]float64{}
	for _, p := range pts {
		if p.Nines <= 0 || p.Nines > 16 {
			t.Fatalf("SRS(%d,%d,%d) nines %v", p.K, p.M, p.S, p.Nines)
		}
		if p.S == p.K {
			anchors[[2]int{p.K, p.M}] = p.Nines
		}
	}
	for _, p := range pts {
		base := anchors[[2]int{p.K, p.M}]
		if d := p.Nines - base; d < -2 || d > 2 {
			t.Fatalf("SRS(%d,%d,%d) drifts %.2f nines from anchor", p.K, p.M, p.S, d)
		}
	}
	av := Fig16Availability(reliability.Params{})
	for _, p := range av {
		if p.Nines < 1 || p.Nines > 6 {
			t.Fatalf("availability SRS(%d,%d,%d) = %.2f nines outside band", p.K, p.M, p.S, p.Nines)
		}
	}
	// Render helpers don't crash and mention the data.
	if s := FormatFig2(pts); len(s) < 100 {
		t.Fatal("FormatFig2 too short")
	}
	if s := FormatFig16(av); len(s) < 100 {
		t.Fatal("FormatFig16 too short")
	}
}

func TestFig10(t *testing.T) {
	rows := Fig10Pricing()
	if len(rows) != 15 {
		t.Fatalf("%d rows, want 5 traces x 3 classes", len(rows))
	}
	if s := FormatFig10(rows); len(s) < 100 {
		t.Fatal("FormatFig10 too short")
	}
}

// TestFig12TimesTheServingSpare: when fig12 stops its clock, the spare
// it timed is the leader's coordinator of the failed shard, not one the
// leader has already evicted for a silence the harness made (no tick
// ran while the cluster filled, so every member looked silent).
func TestFig12TimesTheServingSpare(t *testing.T) {
	_, s, err := recoverRun(2048)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Node(0).Config()
	if !s.Node(0).IsLeader() || len(cfg.Coords) < 2 || cfg.Coords[1] != 5 {
		t.Fatalf("the leader's configuration at the stop (epoch %d): coordinators %v, want node 5 for shard 1", cfg.Epoch, cfg.Coords)
	}
}

func TestFig12RecoveryGrowsWithMetadata(t *testing.T) {
	pts, err := Fig12Recovery([]int{200, 1600})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[1].MetaBytes <= pts[0].MetaBytes {
		t.Fatal("metadata size did not grow with keys")
	}
	if pts[1].Latency <= pts[0].Latency {
		t.Fatalf("recovery latency %v should grow with metadata (was %v)", pts[1].Latency, pts[0].Latency)
	}
	// The paper's regime: hundreds of µs for sub-MiB metadata.
	if pts[0].Latency > 5*time.Millisecond {
		t.Fatalf("recovery latency %v far above the paper's regime", pts[0].Latency)
	}
}

func TestFig13BlockRecovery(t *testing.T) {
	pts, err := Fig13BlockRecovery([]int{1024, 16384})
	if err != nil {
		t.Fatal(err)
	}
	get := func(scheme string, size int) time.Duration {
		for _, p := range pts {
			if p.Scheme == scheme && p.BlockSize == size {
				return p.Latency
			}
		}
		t.Fatalf("missing %s/%d", scheme, size)
		return 0
	}
	// Latency grows with block size.
	if !(get("SRS21", 16384) > get("SRS21", 1024)) {
		t.Fatal("recovery latency must grow with block size")
	}
	// SRS21 recovers faster than SRS31 (k=2 gathers one block, k=3
	// gathers two); SRS31 ~ SRS32.
	if !(get("SRS21", 16384) < get("SRS31", 16384)) {
		t.Fatalf("SRS21 (%v) should beat SRS31 (%v)", get("SRS21", 16384), get("SRS31", 16384))
	}
	r := float64(get("SRS31", 16384)) / float64(get("SRS32", 16384))
	if r < 0.7 || r > 1.4 {
		t.Fatalf("SRS31 vs SRS32 recovery should be close: ratio %.2f", r)
	}
}

func TestMoveSpeedup(t *testing.T) {
	x, err := MoveSpeedup(testBurst)
	if err != nil {
		t.Fatal(err)
	}
	if x < 2 || x > 7 {
		t.Fatalf("REP1/SRS32 speedup %.2f outside band (paper ~4.3)", x)
	}
}

func TestFormatSeries(t *testing.T) {
	s := FormatSeries("t", "µs", []Series{{Label: "a", Points: []LatencyPoint{{Size: 2, Median: time.Microsecond, P90: 2 * time.Microsecond}}}})
	if len(s) == 0 {
		t.Fatal("empty format")
	}
}
