//go:build !race

package metrics

import "time"

// recordBudget bounds one recorded sample in TestRecordingCheap, 25x
// the ~20 ns target: Histogram.Observe takes about 30 ns on 2 vCPUs and
// TraceRing.Record about 5.
const recordBudget = 500 * time.Nanosecond
