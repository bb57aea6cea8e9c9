package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/store"
)

// This file is the control-plane side of the elasticity nemesis: a
// deterministic agent that issues scheme moves and join/leave
// resizes against the simulated cluster at scheduled virtual times,
// retrying and re-resolving through failures exactly like an operator
// driving ringctl would. It shares the fabric with the chaos clients
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

// nemesisOp is one control operation possibly spanning several
// attempts.
type nemesisOp struct {
	step     NemesisStep
	attempts int
	done     bool
}

// nemesisAgent drives NemConvert/NemJoin/NemLeave steps. One per
// simulation, created lazily by the first elastic step applied.
type nemesisAgent struct {
	sim     *Sim
	cfg     *proto.Config
	nextReq proto.ReqID
	// ops maps every attempt's request ID to its operation; a reply to
	// any attempt settles the operation.
	ops         map[proto.ReqID]*nemesisOp
	resolveReqs map[proto.ReqID]bool
	rr          int

	// Acked counts control operations that reached a terminal reply;
	// Abandoned counts those that exhausted their retries.
	Acked     int
	Abandoned int
}

// elasticAgent returns the simulation's control agent, creating and
// registering it on first use.
func (s *Sim) elasticAgent() *nemesisAgent {
	if s.elastic == nil {
		s.elastic = &nemesisAgent{
			sim:         s,
			cfg:         s.cfg0.Clone(),
			nextReq:     1,
			ops:         make(map[proto.ReqID]*nemesisOp),
			resolveReqs: make(map[proto.ReqID]bool),
		}
		s.RegisterClient(nemesisAddr, s.elastic.onMessage)
	}
	return s.elastic
}

// launch starts driving one elastic schedule step.
func (a *nemesisAgent) launch(now time.Duration, step NemesisStep) {
	a.attempt(now, &nemesisOp{step: step})
}

// attempt sends one try of the operation and arms its retry timer.
func (a *nemesisAgent) attempt(now time.Duration, op *nemesisOp) {
	req := a.nextReq
	a.nextReq++
	a.ops[req] = op
	var msg proto.Message
	var target proto.NodeID
	switch op.step.Kind {
	case NemConvert:
		key := fmt.Sprintf("k%d", op.step.A)
		msg = &proto.Move{Req: req, Key: key, Memgest: proto.MemgestID(op.step.B)}
		target = a.cfg.CoordinatorOf(store.KeyHash(key))
	case NemJoin:
		msg = &proto.Resize{Req: req, Op: proto.ResizeJoin, Node: op.step.A}
		target = a.cfg.Leader
	case NemLeave:
		msg = &proto.Resize{Req: req, Op: proto.ResizeLeave, Node: op.step.A}
		target = a.cfg.Leader
	default:
		return
	}
	a.sim.Send(nemesisAddr, core.NodeAddr(target), msg)
	att := op.attempts
	a.sim.At(now+nemesisTimeout, func(tnow time.Duration) {
		if !op.done && op.attempts == att {
			a.retry(tnow, op)
		}
	})
}

// retry re-resolves the routing view and re-sends, or abandons the
// operation past its attempt budget.
func (a *nemesisAgent) retry(now time.Duration, op *nemesisOp) {
	op.attempts++
	if op.attempts > nemesisRetries {
		op.done = true
		a.Abandoned++
		return
	}
	a.resolve(now)
	a.attempt(now, op)
}

// resolve asks the next node (round-robin) for its configuration;
// replies with a newer epoch update routing, exactly like the chaos
// clients and the real client library.
func (a *nemesisAgent) resolve(now time.Duration) {
	ids := a.cfg.AllNodes()
	if len(ids) == 0 {
		return
	}
	target := ids[a.rr%len(ids)]
	a.rr++
	req := a.nextReq
	a.nextReq++
	a.resolveReqs[req] = true
	a.sim.Send(nemesisAddr, core.NodeAddr(target), &proto.Resolve{Req: req})
}

func (a *nemesisAgent) onMessage(now time.Duration, _ string, msg proto.Message) {
	switch r := msg.(type) {
	case *proto.ResolveReply:
		if a.resolveReqs[r.Req] {
			delete(a.resolveReqs, r.Req)
			if r.Config != nil && r.Config.Epoch >= a.cfg.Epoch {
				a.cfg = r.Config.Clone()
			}
		}
	case *proto.MoveReply:
		a.settle(now, r.Req, r.Status)
	case *proto.ResizeReply:
		a.settle(now, r.Req, r.Status)
	}
}

// settle applies a reply: transient statuses back off and retry,
// anything else (success or a definitive rejection such as StNotFound
// for a key never written) ends the operation.
func (a *nemesisAgent) settle(now time.Duration, req proto.ReqID, st proto.Status) {
	op := a.ops[req]
	if op == nil || op.done {
		return
	}
	switch st {
	case proto.StRetry, proto.StWrongNode, proto.StUnavailable:
		att := op.attempts
		a.sim.At(now+nemesisTimeout/4, func(tnow time.Duration) {
			if !op.done && op.attempts == att {
				a.retry(tnow, op)
			}
		})
	default:
		op.done = true
		a.Acked++
	}
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
