package main

import (
	"math"
	"sort"
	"time"

	"ring/internal/metrics"
)

// percentile returns the exact nearest-rank q-quantile of sorted
// samples: the smallest sample with at least q of the samples at or
// below it. It returns 0 for an empty slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of values (mean of the middle two for an
// even count). It returns 0 for an empty slice.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), so
// a spread computed here matches the one the driver computes. It needs
// at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		// Python clamps the index first and takes the remainder from the
		// clamped one, extrapolating at the ends of a short list.
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// histDeltaQuantile returns the upper bucket bound, in nanoseconds, of
// the q-quantile of the samples a log2 histogram gained between two
// snapshots. It returns 0 when no sample was added.
func histDeltaQuantile(before, after metrics.HistSnapshot, q float64) uint64 {
	prev := make(map[uint64]uint64, len(before.Buckets))
	for _, b := range before.Buckets {
		prev[b.Le] = b.Count
	}
	var delta metrics.HistSnapshot
	for _, b := range after.Buckets {
		if c := b.Count - prev[b.Le]; b.Count > prev[b.Le] {
			delta.Buckets = append(delta.Buckets, metrics.HistBucket{Le: b.Le, Count: c})
			delta.Count += c
		}
	}
	return delta.Quantile(q)
}
