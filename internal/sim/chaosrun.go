package sim

import (
	"time"

	"ring/internal/core"
	"ring/internal/linearize"
	"ring/internal/proto"
	"ring/internal/replog"
)

// ChaosRunSpec fully determines one chaos run: cluster shape, seeded
// workload, seeded (or explicit) nemesis schedule, and horizon. Two
// runs with equal specs produce bit-identical schedules, histories,
// and verdicts — that is what makes `ringchaos -seed N` a repro
// command.
type ChaosRunSpec struct {
	Seed int64
	// Schedule overrides the seed-generated nemesis schedule (used for
	// replaying and shrinking). Nil means GenSchedule(Seed, ..., Active).
	Schedule *Schedule
	// Workload tunes the chaos clients; its Seed field is forced to
	// Seed.
	Workload ChaosOptions
	// Active is the window in which the nemesis acts; it always heals,
	// calms, and restarts by its end.
	Active time.Duration
	// Horizon bounds the whole run (Active plus settle time for
	// retries, failover, and recovery).
	Horizon time.Duration
	// UnsafeAck injects the ack-before-quorum bug (core.Options.
	// ChaosUnsafeAck) to validate that the checker catches it.
	UnsafeAck bool
	// UnsafeConvert injects the ack-before-commit move bug
	// (core.Options.ChaosUnsafeConvert): moves acknowledge before the
	// destination write is quorum-durable and purge the source eagerly.
	// Only observable with Elasticity (or an explicit schedule
	// containing convert steps).
	UnsafeConvert bool
	// Elasticity makes the seed-generated schedule
	// GenElasticitySchedule: live scheme moves and join/leave
	// resizes blended into the fault mix, driven by the control agent.
	Elasticity bool
	// CheckBudget caps linearizability search states per key (<=0:
	// linearize.DefaultBudget).
	CheckBudget int
	// Durable activates the disk fault plane: every node runs a real
	// durable engine (fsync=always) on a simulated crash-semantics
	// disk, the seed-generated schedule becomes GenDurableSchedule
	// (kill -9 + recover-from-disk, WAL corruption, fsync faults), and
	// restarted nodes recover from disk instead of rejoining empty.
	Durable bool
}

func (s ChaosRunSpec) withDefaults() ChaosRunSpec {
	if s.Active <= 0 {
		s.Active = 40 * time.Millisecond
	}
	if s.Horizon <= 0 {
		s.Horizon = 4 * s.Active
	}
	return s
}

// ChaosRunResult is everything a driver needs to report, shrink, and
// reproduce.
type ChaosRunResult struct {
	Schedule  Schedule
	History   []linearize.Op
	Check     linearize.Result
	Faults    FaultStats
	Abandoned int
	// ElasticAcked/ElasticAbandoned count control-plane operations
	// (moves, resizes) that completed or ran out of retries; zero on
	// runs without elasticity steps.
	ElasticAcked     int
	ElasticAbandoned int
	// Completed is true when every client finished before the horizon
	// (false usually means the cluster wedged — worth investigating
	// even when the history is clean).
	Completed bool
}

// chaosCluster is the fixed cluster shape chaos runs use: 3 shards,
// 2 redundancy nodes, 2 spares (the paper's Figure 3 layout), and a
// mixed group of RELIABLE memgests only — Rep(1) loses data on a
// crash by design, so including it would make every crash a false
// "violation".
func chaosCluster(unsafeAck, unsafeConvert bool) core.ClusterSpec {
	return core.ClusterSpec{
		Shards: 3, Redundant: 2, Spares: 2,
		Memgests: []proto.Scheme{
			proto.Rep(2, 3),
			proto.Rep(3, 3),
			proto.SRS(2, 1, 3),
			proto.SRS(3, 2, 3),
		},
		Opts: core.Options{
			BlockSize:      4096,
			HeartbeatEvery: 200 * time.Microsecond,
			// FailAfter must sit comfortably above the nemesis's maximum
			// message delay (GenSchedule caps it at 1.5ms): the paper's
			// model is crash-stop with accurate-enough failure detection,
			// so benign jitter must not read as death. A detection
			// timeout below the network's delay bound turns every flaky
			// window into a spurious-failover storm in which live
			// coordinators are deposed mid-write — a fault model the
			// protocol (like the paper's) does not claim to survive.
			FailAfter:          4 * time.Millisecond,
			ChaosUnsafeAck:     unsafeAck,
			ChaosUnsafeConvert: unsafeConvert,
		},
	}
}

// chaosMemgests are the memgest IDs of chaosCluster, in boot order.
func chaosMemgests() []proto.MemgestID { return []proto.MemgestID{1, 2, 3, 4} }

// RunChaos executes one deterministic chaos run: boot the Figure 3
// cluster in the simulator, apply the nemesis schedule, drive the
// seeded workload, and check the recorded history for per-key
// linearizability.
func RunChaos(spec ChaosRunSpec) ChaosRunResult {
	spec = spec.withDefaults()
	cluster := chaosCluster(spec.UnsafeAck, spec.UnsafeConvert)
	cfg, err := core.BootConfig(cluster)
	if err != nil {
		panic(err) // static spec; cannot fail
	}
	s := New(cfg, cluster.Opts, DefaultModel())
	if spec.Durable {
		// fsync=always: an acknowledged write is a durable write, so
		// every committed entry must survive any kill in the schedule.
		if err := s.EnableDurable(spec.Seed, replog.DurableOptions{Policy: replog.FsyncAlways}); err != nil {
			panic(err) // fresh in-memory disks; cannot fail
		}
	}
	s.EnableTicks(100 * time.Microsecond)

	w := spec.Workload.withDefaults()
	w.Seed = spec.Seed
	if len(w.Memgests) == 0 {
		w.Memgests = chaosMemgests()
	}
	if w.ThinkTime <= 0 {
		// Spread each client's operations over the nemesis window so
		// faults land on in-flight traffic.
		w.ThinkTime = spec.Active / time.Duration(w.OpsPerClient)
	}

	sched := GenSchedule(spec.Seed, cfg.AllNodes(), spec.Active)
	if spec.Durable {
		sched = GenDurableSchedule(spec.Seed, cfg.AllNodes(), spec.Active)
	}
	if spec.Elasticity {
		// Moves target the workload's keyspace and memgests so they
		// land on keys with live traffic.
		sched = GenElasticitySchedule(spec.Seed, cfg.AllNodes(), spec.Active, w.Keys, w.Memgests)
	}
	if spec.Schedule != nil {
		sched = *spec.Schedule
	}
	sched.Apply(s, spec.Seed*1_000_000_007+12345)

	h := NewChaosHarness(s, cfg, w)
	hist := h.Run(spec.Horizon)

	res := ChaosRunResult{
		Schedule:  sched,
		History:   hist,
		Check:     linearize.Check(hist, spec.CheckBudget),
		Faults:    s.Faults,
		Abandoned: h.Abandoned,
		Completed: h.Done(),
	}
	if s.elastic != nil {
		res.ElasticAcked = s.elastic.Acked
		res.ElasticAbandoned = s.elastic.Abandoned
	}
	return res
}

// ShrinkSchedule greedily removes nemesis steps while the violation
// persists: repeated passes try dropping each step and re-running the
// (deterministic) run with the reduced schedule, keeping any removal
// that still yields a non-linearizable verdict. The result is a
// locally minimal schedule for the same seed. Returns the shrunk
// schedule and the number of full runs spent.
func ShrinkSchedule(spec ChaosRunSpec, sched Schedule) (Schedule, int) {
	runs := 0
	fails := func(cand Schedule) bool {
		runs++
		s := spec
		s.Schedule = &cand
		return RunChaos(s).Check.Verdict == linearize.Violation
	}
	improved := true
	for improved {
		improved = false
		for i := 0; i < len(sched.Steps); i++ {
			cand := sched.Without(i)
			if fails(cand) {
				sched = cand
				improved = true
				i-- // the next step shifted into this slot
			}
		}
	}
	return sched, runs
}
