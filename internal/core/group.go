package core

import (
	"fmt"

	"ring/internal/metrics"
	"ring/internal/store"
)

// Memgest-group sharding (ROADMAP: saturate real cores).
//
// A Ring node is a deliberately single-threaded state machine, so one
// group of memgests can use at most one core per node. Groups are
// mutually independent by construction — no message, stripe, or
// recovery action ever crosses a group boundary — which makes them
// the natural unit of parallelism: a deployment runs G complete,
// independent group instances and partitions the key space between
// them with a second hash. Each group keeps its own fabric, nodes,
// runner goroutines, and configuration epochs; a process hosting one
// ringd node of G groups therefore runs G runner goroutines and
// saturates up to G cores while every per-node invariant (and the
// zero-alloc pins on drain/dispatch/flush) is untouched.

// groupMix is the 64-bit finalizer of MurmurHash3. Shard routing
// inside a group already uses h(key) mod s on the same FNV hash, so
// group routing must decorrelate from it: the finalizer's avalanche
// makes group and shard choice independent even when G shares factors
// with s.
const groupMix = 0xff51afd7ed558ccd

// GroupOf routes a key to one of `groups` independent memgest groups.
// Every client of a sharded deployment must use this same mapping.
func GroupOf(key string, groups int) int {
	if groups <= 1 {
		return 0
	}
	h := store.KeyHash(key)
	h ^= h >> 33
	h *= groupMix
	h ^= h >> 33
	return int(h % uint64(groups))
}

// GroupCluster is an embedded sharded deployment: G independent
// in-process clusters, each with its own memnet fabric and runner
// goroutines, with keys partitioned by GroupOf.
type GroupCluster struct {
	Groups []*Cluster
}

// StartGroupCluster boots `groups` independent clusters of the same
// spec and registers their queue-depth gauges. groups < 1 selects 1.
func StartGroupCluster(spec ClusterSpec, groups int) (*GroupCluster, error) {
	if groups < 1 {
		groups = 1
	}
	gc := &GroupCluster{}
	for g := 0; g < groups; g++ {
		c, err := StartCluster(spec)
		if err != nil {
			gc.Stop()
			return nil, err
		}
		gc.Groups = append(gc.Groups, c)
		runners := make([]*Runner, 0, len(c.Runs))
		for _, r := range c.Runs {
			runners = append(runners, r)
		}
		RegisterGroupQueueGauge(g, runners)
	}
	return gc, nil
}

// GroupFor returns the group index responsible for key.
func (gc *GroupCluster) GroupFor(key string) int {
	return GroupOf(key, len(gc.Groups))
}

// Stop shuts down every group.
func (gc *GroupCluster) Stop() {
	for _, c := range gc.Groups {
		c.Stop()
	}
}

// RegisterGroupQueueGauge exposes the summed inbox backlog of one
// group's runners as core.group.<g>.queue_depth in the process
// registry (scraped through /debug/ringvars and `ringctl stats`).
// Call it once per hosted group with the runners the process owns.
func RegisterGroupQueueGauge(group int, runners []*Runner) {
	rs := append([]*Runner(nil), runners...)
	metrics.Default.Register(
		fmt.Sprintf("core.group.%d.queue_depth", group),
		metrics.GaugeFunc(func() int64 {
			var sum int64
			for _, r := range rs {
				sum += int64(r.InboxDepth())
			}
			return sum
		}))
}
