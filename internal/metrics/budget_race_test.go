//go:build race

package metrics

import "time"

// recordBudget under the race detector (ci.sh runs the internal test
// tree with -race), 3x the slowest run measured on 2 vCPUs: alone,
// Histogram.Observe took 330-440 ns and TraceRing.Record 115-240 ns;
// with three other race runs and a chaos sweep on the host, Observe
// took 1.69-1.93 µs, and once in a full race test tree 2.06 µs. The
// bound scales with the detector rather than being skipped; the bound
// without it is the one a lock or an allocation per sample trips.
const recordBudget = 6 * time.Microsecond
