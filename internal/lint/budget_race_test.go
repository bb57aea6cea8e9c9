//go:build race

package lint

import "time"

// repoCleanBudget under the race detector (ci.sh runs the internal test
// tree with -race), again 3x the slowest sweep measured: 25.2 s on a
// cold build cache, 1.55 s warm. The assertion scales with the detector
// rather than being skipped: a 10x regression should still fail here.
const repoCleanBudget = 75 * time.Second
