//go:build !race

package lint

import "time"

// repoCleanBudget bounds TestRepoClean's wall clock. The full-module
// sweep is one `go list -export` (a fraction of a second once Go's
// build cache is warm) plus type-checking and seven analyzers over
// every package; 60s is generous on a cold build cache and two orders
// of magnitude above a warm run, so tripping it means the analyzers
// regressed, not that the machine was slow.
const repoCleanBudget = 60 * time.Second
