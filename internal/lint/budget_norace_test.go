//go:build !race

package lint

import "time"

// repoCleanBudget bounds TestRepoClean's wall clock at 3x the slowest
// sweep measured (PR 22, 2 vCPUs, six analyzers): 13.0 s on a cold
// build cache, where `go list -export` compiles every package first;
// 0.6 s warm. Tripping it means the analyzers or the loader regressed,
// not that the machine was slow.
const repoCleanBudget = 40 * time.Second
