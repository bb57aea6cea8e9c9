package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ring/internal/proto"
	"ring/internal/store"
)

// This file is the control-plane side of the elasticity nemesis: a
// deterministic agent that issues scheme moves and join/leave
// resizes against the simulated cluster at scheduled virtual times,
// retrying and re-resolving through failures (caller.go) exactly like an
// operator driving ringctl would. It shares the fabric with the chaos clients
// but records nothing in the linearizability history — moves do not
// change values and resizes do not touch data, so their correctness is
// asserted indirectly: the client-visible history must stay
// linearizable while placements and schemes churn underneath it.

// nemesisAddr is the control agent's client address on the fabric.
const nemesisAddr = "client/nemesis"

const (
	// nemesisTimeout is how long the agent waits for a reply before
	// re-resolving and retrying.
	nemesisTimeout = 2 * time.Millisecond
	// nemesisRetries bounds attempts per control operation; elasticity
	// steps are fault injections, so abandoning one under a hostile
	// schedule is acceptable (and recorded).
	nemesisRetries = 30
)

// nemesisAgent drives NemConvert/NemJoin/NemLeave steps. One per
// simulation, created lazily by the first elastic step applied.
type nemesisAgent struct {
	*caller
	// Acked counts control operations that reached a terminal reply;
	// Abandoned counts those that exhausted their retries.
	Acked     int
	Abandoned int
}

// elasticAgent returns the simulation's control agent, creating and
// registering it on first use.
func (s *Sim) elasticAgent() *nemesisAgent {
	if s.elastic == nil {
		s.elastic = &nemesisAgent{caller: newCaller(s, nemesisAddr, s.cfg0.Clone(), nemesisTimeout, nemesisRetries)}
	}
	return s.elastic
}

// launch starts driving one elastic schedule step: a move goes to the
// key's coordinator, a resize to the leader. A transient status is
// retried; anything else (success or a definitive rejection such as
// StNotFound for a key never written) ends the operation.
func (a *nemesisAgent) launch(now time.Duration, step NemesisStep) {
	a.start(now, func(cfg *proto.Config, req proto.ReqID) (proto.NodeID, proto.Message) {
		switch step.Kind {
		case NemConvert:
			key := fmt.Sprintf("k%d", step.A)
			return cfg.CoordinatorOf(store.KeyHash(key)), &proto.Move{Req: req, Key: key, Memgest: proto.MemgestID(step.B)}
		case NemJoin:
			return cfg.Leader, &proto.Resize{Req: req, Op: proto.ResizeJoin, Node: step.A}
		default:
			return cfg.Leader, &proto.Resize{Req: req, Op: proto.ResizeLeave, Node: step.A}
		}
	}, func(_ time.Duration, r proto.Reply) bool {
		switch {
		case r == nil:
			a.Abandoned++
		case r.Result().Transient():
			return false
		default:
			a.Acked++
		}
		return true
	})
}

// GenElasticitySchedule derives an elasticity nemesis schedule from a
// seed: the fault mix of GenSchedule (crashes, flaky windows) blended
// with scheme moves over the workload's keyspace and graceful
// leave/rejoin pairs on non-leader nodes, all inside [0, active]. Like
// the other generators it deterministically cleans up at the end of
// the active window; the cleanup re-admits every node that ever left
// with an idempotent join, so any shrunk subset of the schedule still
// ends on a whole cluster.
func GenElasticitySchedule(seed int64, nodes []proto.NodeID, active time.Duration, keys int, mgs []proto.MemgestID) Schedule {
	rng := rand.New(rand.NewSource(seed))
	ids := append([]proto.NodeID(nil), nodes...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var s Schedule
	add := func(st NemesisStep) { s.Steps = append(s.Steps, st) }

	steps := 4 + rng.Intn(4)
	slot := active / time.Duration(steps+1)
	flaky := false
	left := make(map[proto.NodeID]bool)
	for i := 0; i < steps; i++ {
		base := slot*time.Duration(i) + time.Duration(rng.Int63n(int64(slot/2)+1))
		switch rng.Intn(6) {
		case 0: // crash + restart one node
			n := ids[rng.Intn(len(ids))]
			down := time.Duration(rng.Int63n(int64(slot/2) + 1))
			add(NemesisStep{At: base, Kind: NemKill, A: n})
			add(NemesisStep{At: base + down, Kind: NemRestart, A: n})
		case 1: // flaky window
			add(NemesisStep{
				At: base, Kind: NemFlaky,
				DropPct:  1 + rng.Intn(8),
				DupPct:   rng.Intn(5),
				MaxDelay: time.Duration(1+rng.Intn(300)) * 5 * time.Microsecond,
			})
			flaky = true
		case 2: // calm down early (no-op if not flaky)
			if flaky {
				add(NemesisStep{At: base, Kind: NemCalm})
				flaky = false
			}
		case 3, 4: // move a workload key to a random scheme (weighted
			// double: scheme changes under load are the point of this lane)
			add(NemesisStep{
				At: base, Kind: NemConvert,
				A: proto.NodeID(rng.Intn(keys)),
				B: proto.NodeID(mgs[rng.Intn(len(mgs))]),
			})
		case 5: // graceful leave, then rejoin. Never the boot leader:
			// the leader cannot fence itself out.
			n := ids[1+rng.Intn(len(ids)-1)]
			down := time.Duration(1 + rng.Int63n(int64(slot)))
			add(NemesisStep{At: base, Kind: NemLeave, A: n})
			add(NemesisStep{At: base + down, Kind: NemJoin, A: n})
			left[n] = true
		}
	}
	// Deterministic cleanup: calm, heal, restart, and re-admit every
	// node that ever left (join is idempotent, so this stays valid when
	// shrinking removes the matching leave).
	add(NemesisStep{At: active, Kind: NemCalm})
	add(NemesisStep{At: active, Kind: NemHealAll})
	for _, n := range ids {
		add(NemesisStep{At: active, Kind: NemRestart, A: n})
	}
	for _, n := range ids {
		if left[n] {
			add(NemesisStep{At: active, Kind: NemJoin, A: n})
		}
	}
	sort.SliceStable(s.Steps, func(i, j int) bool { return s.Steps[i].At < s.Steps[j].At })
	return s
}
