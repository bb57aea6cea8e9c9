package metrics

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("counter = %d", c.Load())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Load() != 4 {
		t.Fatalf("gauge = %d", g.Load())
	}
	var m MaxGauge
	for _, v := range []int64{3, 9, 1, 9, 4} {
		m.Observe(v)
	}
	if m.Load() != 9 {
		t.Fatalf("max gauge = %d", m.Load())
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// 100 samples at ~1us, 10 at ~1ms: the p50 bound must sit at the
	// microsecond bucket, the p99 at the millisecond one.
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 110 {
		t.Fatalf("count = %d", s.Count)
	}
	if want := uint64(100*1000 + 10*1000000); s.SumNS != want {
		t.Fatalf("sum = %d, want %d", s.SumNS, want)
	}
	if p50 := s.Quantile(0.5); p50 < 1000 || p50 > 2048 {
		t.Fatalf("p50 bound = %dns, want ~1-2us", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 1000000 || p99 > 2097152 {
		t.Fatalf("p99 bound = %dns, want ~1-2ms", p99)
	}
	if mean := s.Mean(); mean < 90000 || mean > 95000 {
		t.Fatalf("mean = %.0fns", mean)
	}
	// Zero and negative samples land in the smallest bucket.
	var z Histogram
	z.Observe(0)
	z.Observe(-time.Second)
	zs := z.Snapshot()
	if zs.Count != 2 || zs.SumNS != 0 {
		t.Fatalf("zero-sample snapshot: %+v", zs)
	}
	if zs.Quantile(1.0) != 1 {
		t.Fatalf("zero quantile bound = %d", zs.Quantile(1.0))
	}
	var empty Histogram
	if empty.Snapshot().Quantile(0.5) != 0 || empty.Snapshot().Mean() != 0 {
		t.Fatal("empty histogram quantile/mean not zero")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, each = 8, 10000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(i) * time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*each {
		t.Fatalf("count = %d, want %d", s.Count, workers*each)
	}
	var inBuckets uint64
	for _, b := range s.Buckets {
		inBuckets += b.Count
	}
	if inBuckets != s.Count {
		t.Fatalf("buckets hold %d of %d samples", inBuckets, s.Count)
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(4)
	if r.Len() != 0 {
		t.Fatal("fresh ring not empty")
	}
	for i := 0; i < 6; i++ {
		r.Record(TracePut, fmt.Sprintf("key-%d", i), 2, uint64(i+1), 0,
			time.Duration(i)*time.Millisecond, time.Microsecond)
	}
	if r.Len() != 4 || r.Recorded() != 6 {
		t.Fatalf("len=%d recorded=%d", r.Len(), r.Recorded())
	}
	last := r.Last(0)
	if len(last) != 4 {
		t.Fatalf("Last(0) returned %d entries", len(last))
	}
	// Oldest-first, holding the 4 most recent records (2..5).
	for i, e := range last {
		want := fmt.Sprintf("key-%d", i+2)
		if e.KeyString() != want || e.Version != uint64(i+3) {
			t.Fatalf("entry %d: key=%q version=%d", i, e.KeyString(), e.Version)
		}
		if e.Op != TracePut || e.Op.String() != "put" {
			t.Fatalf("entry %d: op %v", i, e.Op)
		}
	}
	if got := r.Last(2); len(got) != 2 || got[1].KeyString() != "key-5" {
		t.Fatalf("Last(2) = %+v", got)
	}
	// Keys longer than TraceKeyLen truncate without allocation.
	long := string(make([]byte, 3*TraceKeyLen))
	r.Record(TraceGet, long, 1, 1, 0, 0, 0)
	if e := r.Last(1)[0]; int(e.KeyLen) != TraceKeyLen {
		t.Fatalf("long key kept %d bytes", e.KeyLen)
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	var g Gauge
	var m MaxGauge
	var h Histogram
	c.Add(3)
	g.Set(-2)
	m.Observe(17)
	h.Observe(time.Microsecond)
	reg.Register("ops.total", &c)
	reg.Register("queue.depth", &g)
	reg.Register("queue.high_water", &m)
	reg.Register("latency", &h)
	// Re-registering a name replaces without duplicating.
	reg.Register("ops.total", &c)

	snap := reg.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d vars", len(snap))
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if string(back["ops.total"]) != "3" || string(back["queue.depth"]) != "-2" || string(back["queue.high_water"]) != "17" {
		t.Fatalf("scalar vars: %s", b)
	}
	var hs HistSnapshot
	if err := json.Unmarshal(back["latency"], &hs); err != nil || hs.Count != 1 {
		t.Fatalf("histogram var: %s (%v)", back["latency"], err)
	}
}

// --- hot-path pins -------------------------------------------------------

// TestRecordingAllocs pins every recording primitive at zero
// allocations: instrumentation rides the put/get hot path, where PR 1
// established an allocation-free regime this package must not break.
func TestRecordingAllocs(t *testing.T) {
	var c Counter
	var g Gauge
	var m MaxGauge
	var h Histogram
	r := NewTraceRing(256)
	cases := []struct {
		name string
		f    func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Gauge.Add", func() { g.Add(1) }},
		{"MaxGauge.Observe", func() { m.Observe(5) }},
		{"Histogram.Observe", func() { h.Observe(123 * time.Microsecond) }},
		{"TraceRing.Record", func() {
			r.Record(TracePut, "some-representative-key", 3, 17, 0, time.Second, time.Microsecond)
		}},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.f); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestRecordingCheap is a coarse regression guard on per-sample cost.
// The design target is <~20ns per recorded sample (a few uncontended
// atomic adds); the assertion (recordBudget, build-tag-selected) allows
// a wide margin so shared CI machines do not flake, while still
// catching an accidental lock or allocation (both cost an order of
// magnitude more).
func TestRecordingCheap(t *testing.T) {
	var h Histogram
	const n = 1_000_000
	start := time.Now()
	for i := 0; i < n; i++ {
		h.Observe(time.Duration(i))
	}
	perOp := time.Since(start) / n
	t.Logf("Histogram.Observe: %v/op", perOp)
	if perOp > recordBudget {
		t.Fatalf("Histogram.Observe costs %v/op, want well under %v (target ~20ns)", perOp, recordBudget)
	}
	r := NewTraceRing(256)
	start = time.Now()
	for i := 0; i < n; i++ {
		r.Record(TraceGet, "hot-key", 1, uint64(i), 0, time.Duration(i), 0)
	}
	perOp = time.Since(start) / n
	t.Logf("TraceRing.Record: %v/op", perOp)
	if perOp > recordBudget {
		t.Fatalf("TraceRing.Record costs %v/op, want well under %v (target ~20ns)", perOp, recordBudget)
	}
}

// Benchmarks: the CI bench smoke run publishes these so the per-sample
// cost has a visible trajectory.

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

func BenchmarkTraceRingRecord(b *testing.B) {
	r := NewTraceRing(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(TracePut, "bench-key", 2, uint64(i), 0, time.Duration(i), time.Microsecond)
	}
}

func BenchmarkHistogramSnapshot(b *testing.B) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Snapshot()
	}
}
