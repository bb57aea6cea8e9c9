package main

import (
	"math"
	"testing"
	"time"

	"ring/internal/metrics"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	var sorted []time.Duration
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0, 1}, {0.001, 1}, {0.011, 2}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	// An odd count has a sample exactly in the middle.
	if got := percentile([]time.Duration{3, 5, 9}, 0.5); got != 5 {
		t.Errorf("median of 3,5,9 = %d, want 5", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

// The expected values are what Python 3 prints for
// statistics.quantiles(values, n=4), the statistic the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6}, 1.75, 3.5, 5.25},
		{[]float64{1, 3}, 0.5, 2, 3.5},
		{[]float64{2, 4, 8}, 2, 4, 8},
	} {
		q1, q2, q3 := quartiles(c.values)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.values, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestHistDeltaQuantile(t *testing.T) {
	var h metrics.Histogram
	// Samples before the phase sit in a high bucket and must not count.
	for i := 0; i < 100; i++ {
		h.Observe(time.Second)
	}
	before := h.Snapshot()
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Microsecond) // bucket below 131072 ns
	}
	for i := 0; i < 5; i++ {
		h.Observe(time.Millisecond) // bucket below 1048576 ns
	}
	after := h.Snapshot()
	if got := histDeltaQuantile(before, after, 0.5); got != 1<<17 {
		t.Errorf("p50 of the delta = %d ns, want %d", got, 1<<17)
	}
	if got := histDeltaQuantile(before, after, 0.99); got != 1<<20 {
		t.Errorf("p99 of the delta = %d ns, want %d", got, 1<<20)
	}
	if got := histDeltaQuantile(after, after, 0.5); got != 0 {
		t.Errorf("p50 of an empty delta = %d, want 0", got)
	}
}

func TestWorseFollowsDirection(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if got := lower.worse(100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100 -> 110: worse by %v, want 0.10", got)
	}
	if got := higher.worse(100, 110); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("higher-is-better 100 -> 110: worse by %v, want -0.10", got)
	}
}
