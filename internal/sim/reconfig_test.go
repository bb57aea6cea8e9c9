package sim

import (
	"fmt"
	"testing"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/store"
)

// reconfigSim is paperSpec with ticks on at a heartbeat short enough to
// run hundreds of FailAfter periods, an operator address that collects
// the control plane's replies, and a fault hook that counts every
// ConfigPush entering the fabric and drops the first one addressed to
// node 2 once armed.
type reconfigSim struct {
	*Sim
	spec    core.ClusterSpec
	replies []proto.Message
	pushes  int
	dropArm bool
	dropped int
}

const operatorAddr = "client/operator"

func newReconfigSim(t *testing.T, spares int) *reconfigSim {
	t.Helper()
	spec := paperSpec()
	spec.Spares = spares
	// At paperSpec's 1 MiB blocks one block decode outlasts this
	// FailAfter, and the node doing it would be declared dead.
	spec.Opts.BlockSize = 4096
	spec.Opts.HeartbeatEvery = 100 * time.Microsecond
	spec.Opts.FailAfter = time.Millisecond
	s, err := NewFromSpec(spec, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	r := &reconfigSim{Sim: s, spec: spec}
	s.RegisterClient(operatorAddr, func(_ time.Duration, _ string, msg proto.Message) {
		r.replies = append(r.replies, msg)
	})
	s.SetFaultFunc(func(_ time.Duration, _, to string, msg proto.Message, _ int) FaultAction {
		if _, ok := msg.(*proto.ConfigPush); !ok {
			return FaultAction{}
		}
		r.pushes++
		if r.dropArm && to == core.NodeAddr(2) {
			r.dropArm = false
			r.dropped++
			return FaultAction{Drop: true}
		}
		return FaultAction{}
	})
	s.EnableTicks(spec.Opts.HeartbeatEvery)
	// Let heartbeats settle, and stop midway between two ticks so no
	// heartbeat ack is in flight when the test acts.
	s.Run(10*spec.Opts.HeartbeatEvery + spec.Opts.HeartbeatEvery/2)
	return r
}

// shard2Key returns a key node 2 coordinates.
func (r *reconfigSim) shard2Key() string {
	cfg := r.Node(0).Config()
	for i := 0; ; i++ {
		key := fmt.Sprintf("k%d", i)
		if cfg.ShardOf(store.KeyHash(key)) == 2 {
			return key
		}
	}
}

// TestLostConfigPushIsRepaired drops exactly one ConfigPush addressed
// to node 2 — the announce of a new memgest, of a graceful leave, of a
// failover — and checks that within FailAfter every member has the new
// epoch anyway: node 2's next heartbeat ack shows the old one, and the
// leader sends the configuration again, once.
func TestLostConfigPushIsRepaired(t *testing.T) {
	for _, tc := range []struct {
		name string
		// act changes the configuration; wait is how long the change
		// takes to be proposed.
		act  func(r *reconfigSim)
		wait time.Duration
		// announced is the ConfigPush count of the change on a fabric that
		// loses nothing.
		announced int
		check     func(t *testing.T, r *reconfigSim, cfg *proto.Config)
	}{
		{
			name: "create memgest",
			act: func(r *reconfigSim) {
				r.Send(operatorAddr, core.NodeAddr(0), &proto.Reconfig{Req: 1, Op: proto.ReconfigCreate, Scheme: proto.SRS(2, 2, 3)})
			},
			announced: 6,
			check: func(t *testing.T, r *reconfigSim, cfg *proto.Config) {
				mr, _ := r.replies[0].(*proto.ReconfigReply)
				if mr == nil || mr.Status != proto.StOK || mr.Memgest != 8 || cfg.Memgest(8) == nil {
					t.Fatalf("create memgest: %+v", r.replies[0])
				}
				// The memgest is usable on the shard whose coordinator
				// missed the announce.
				c := NewClient(r.Sim, "t", cfg)
				if _, pr, err := c.PutSync(r.shard2Key(), []byte("v"), 8); err != nil || pr.Status != proto.StOK {
					t.Fatalf("put into the new memgest on shard 2: %v %+v", err, pr)
				}
			},
		},
		{
			name: "leave",
			act: func(r *reconfigSim) {
				r.Send(operatorAddr, core.NodeAddr(0), &proto.Reconfig{Req: 1, Op: proto.ReconfigLeave, Node: 1})
			},
			announced: 1 + 5, // the fence, then the five remaining members
			check: func(t *testing.T, r *reconfigSim, cfg *proto.Config) {
				rr, _ := r.replies[0].(*proto.ReconfigReply)
				if rr == nil || rr.Status != proto.StOK || rr.Moved != 1 || cfg.Coords[1] != 5 {
					t.Fatalf("leave: %+v, coords %v", r.replies[0], cfg.Coords)
				}
			},
		},
		{
			name:      "failover",
			act:       func(r *reconfigSim) { r.Kill(1) },
			wait:      time.Millisecond + 2*100*time.Microsecond, // FailAfter and two heartbeats
			announced: 5,
			check: func(t *testing.T, r *reconfigSim, cfg *proto.Config) {
				if cfg.Coords[1] != 5 {
					t.Fatalf("failover: coords %v", cfg.Coords)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newReconfigSim(t, 2)
			r.dropArm = true
			tc.act(r)
			r.Run(r.Now() + tc.wait + r.spec.Opts.FailAfter)

			leader := r.Node(0)
			cfg := leader.Config()
			if cfg.Epoch != 2 || r.dropped != 1 {
				t.Fatalf("leader at epoch %d, dropped %d pushes", cfg.Epoch, r.dropped)
			}
			for _, id := range cfg.AllNodes() {
				if got := r.Node(id).Config().Epoch; got != 2 {
					t.Fatalf("node %d still at epoch %d", id, got)
				}
			}
			if got := leader.Metrics.ConfigRepushes.Load(); got != 1 || r.pushes != tc.announced+1 {
				t.Fatalf("ConfigRepushes = %d, %d ConfigPush on the fabric, want 1 and %d", got, r.pushes, tc.announced+1)
			}
			tc.check(t, r, cfg)
		})
	}
}

// TestNoDeltaNoEpoch: with no spare, a dead redundancy node keeps its
// slots — there is no configuration to change to, so a hundred
// FailAfter periods later the epoch has not moved and not one
// ConfigPush was sent.
func TestNoDeltaNoEpoch(t *testing.T) {
	r := newReconfigSim(t, 0)
	r.Kill(4)
	r.Run(r.Now() + 100*r.spec.Opts.FailAfter)

	leader := r.Node(0)
	if got := leader.Config().Epoch; got != 1 {
		t.Fatalf("epoch rose to %d with no change to make", got)
	}
	if got := leader.Metrics.ConfigRepushes.Load(); got != 0 || r.pushes != 0 {
		t.Fatalf("ConfigRepushes = %d, %d ConfigPush on the fabric, want none", got, r.pushes)
	}
}
