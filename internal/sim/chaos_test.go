package sim

import (
	"fmt"
	"testing"
	"time"

	"ring/internal/core"
	"ring/internal/linearize"
	"ring/internal/proto"
	"ring/internal/store"
)

// TestChaosSeedsLinearizable is the bread-and-butter chaos check: a
// band of seeds, each a full generated nemesis schedule (crashes,
// partitions, flaky links) over the mixed Rep/SRS cluster, must yield
// a linearizable history. On failure it prints the one-line repro.
func TestChaosSeedsLinearizable(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := RunChaos(ChaosRunSpec{Seed: seed})
		if r.Check.Verdict != linearize.Linearizable {
			t.Errorf("seed %d: %v\nrepro: ringchaos -seed %d\nschedule: %s\n%s",
				seed, r.Check.Verdict, seed, r.Schedule, r.Check)
		}
		if !r.Completed {
			t.Errorf("seed %d: workload did not complete before the horizon", seed)
		}
	}
}

// TestChaosDeterministicReplay is the replayability contract behind
// `ringchaos -seed N`: two runs of the same spec must produce the
// same schedule, the same fault counts, and a bit-identical history.
func TestChaosDeterministicReplay(t *testing.T) {
	for _, seed := range []int64{2, 5, 13} {
		a := RunChaos(ChaosRunSpec{Seed: seed})
		b := RunChaos(ChaosRunSpec{Seed: seed})
		if a.Schedule.String() != b.Schedule.String() {
			t.Fatalf("seed %d: schedules differ:\n%s\n%s", seed, a.Schedule, b.Schedule)
		}
		if a.Faults != b.Faults {
			t.Fatalf("seed %d: fault stats differ: %+v vs %+v", seed, a.Faults, b.Faults)
		}
		if len(a.History) != len(b.History) {
			t.Fatalf("seed %d: history lengths differ: %d vs %d", seed, len(a.History), len(b.History))
		}
		for i := range a.History {
			if a.History[i] != b.History[i] {
				t.Fatalf("seed %d: history[%d] differs:\n%v\n%v", seed, i, a.History[i], b.History[i])
			}
		}
	}
}

// TestChaosUnsafeAckCaught validates the whole pipeline end to end: an
// injected ack-before-quorum bug must produce a violation on some
// seed, the shrinker must reduce the schedule to a subset, and the
// shrunk schedule — round-tripped through its string form, as a repro
// command would — must still reproduce the violation.
func TestChaosUnsafeAckCaught(t *testing.T) {
	var spec ChaosRunSpec
	var full ChaosRunResult
	found := false
	for seed := int64(1); seed <= 20; seed++ {
		spec = ChaosRunSpec{Seed: seed, UnsafeAck: true}
		full = RunChaos(spec)
		if full.Check.Verdict == linearize.Violation {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("injected ack-before-quorum bug not caught on any seed in 1..20")
	}

	shrunk, runs := ShrinkSchedule(spec, full)
	if len(shrunk.Steps) > len(full.Schedule.Steps) {
		t.Fatalf("shrink grew the schedule: %d -> %d steps", len(full.Schedule.Steps), len(shrunk.Steps))
	}
	if runs == 0 {
		t.Fatal("shrinker did not run")
	}
	// Every surviving step must come from the original schedule.
	orig := make(map[string]bool)
	for _, st := range full.Schedule.Steps {
		orig[st.String()] = true
	}
	for _, st := range shrunk.Steps {
		if !orig[st.String()] {
			t.Fatalf("shrunk step %q not in original schedule", st)
		}
	}

	parsed, err := ParseSchedule(shrunk.String())
	if err != nil {
		t.Fatalf("shrunk schedule does not re-parse: %v", err)
	}
	spec.Schedule = &parsed
	if r := RunChaos(spec); r.Check.Verdict != linearize.Violation {
		t.Fatalf("shrunk schedule %q does not reproduce the violation (got %v)",
			shrunk, r.Check.Verdict)
	}
	t.Logf("seed %d: caught, shrunk %d -> %d steps in %d runs: %s",
		spec.Seed, len(full.Schedule.Steps), len(shrunk.Steps), runs, shrunk)
}

// TestChaosScheduleRoundTrip pins the schedule wire format: generated
// schedules must survive String -> ParseSchedule unchanged.
func TestChaosScheduleRoundTrip(t *testing.T) {
	cfg := mustChaosConfig(t)
	for seed := int64(1); seed <= 10; seed++ {
		s := GenSchedule(seed, cfg.AllNodes(), 40*time.Millisecond)
		p, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if p.String() != s.String() {
			t.Fatalf("seed %d: round trip changed schedule:\n%s\n%s", seed, s, p)
		}
		if len(p.Steps) != len(s.Steps) {
			t.Fatalf("seed %d: step count changed", seed)
		}
	}
	if _, err := ParseSchedule("1ms:frobnicate:3"); err == nil {
		t.Fatal("unknown step kind must not parse")
	}
	if _, err := ParseSchedule("1ms:kill"); err == nil {
		t.Fatal("kill without node must not parse")
	}
}

// TestKillRestartStaleEvents pins the incarnation fencing: after Kill,
// a node's previous state machine must never run again — no tick, no
// queued CPU slot, no delivery — even while the simulation keeps
// stepping, and a Restart brings up a fresh quarantined instance that
// rejoins without inheriting any of that state.
func TestKillRestartStaleEvents(t *testing.T) {
	spec := chaosCluster(false, false)
	s, err := NewFromSpec(spec, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableTicks(100 * time.Microsecond)
	cfg := mustChaosConfig(t)

	// Drive traffic so the victim has queued work when it dies.
	h := NewChaosHarness(s, cfg, ChaosOptions{
		Seed: 7, Clients: 3, Keys: 2, OpsPerClient: 40,
		ThinkTime: 50 * time.Microsecond, Memgests: chaosMemgests(),
	})

	victim := cfg.CoordinatorOf(store.KeyHash("k0"))
	killed := false
	var old *core.Node
	s.At(2*time.Millisecond, func(time.Duration) {
		old = s.Node(victim)
		s.Kill(victim)
		killed = true
	})
	s.At(4*time.Millisecond, func(time.Duration) { s.Restart(victim) })

	var eventsAtKill uint64
	for h.running > 0 && s.Now() < 100*time.Millisecond && s.Step() {
		if killed && old != nil && eventsAtKill == 0 {
			eventsAtKill = old.Metrics.Events.Load()
		}
		if killed && old != nil && old.Metrics.Events.Load() > eventsAtKill && eventsAtKill != 0 {
			t.Fatalf("dead incarnation processed %d events after Kill",
				old.Metrics.Events.Load()-eventsAtKill)
		}
	}
	if !killed {
		t.Fatal("kill callback never fired")
	}
	if s.Node(victim) == old {
		t.Fatal("Restart did not install a fresh state machine")
	}
	if s.Dead(victim) {
		t.Fatal("victim still marked dead after Restart")
	}
	res := linearize.Check(h.History(), 0)
	if res.Verdict != linearize.Linearizable {
		t.Fatalf("history not linearizable across kill+restart:\n%s", res)
	}
}

// TestParkedReadsSurviveCoordinatorKill is the parked-get regression:
// reads outstanding against a coordinator when it is killed must not
// hang forever — the client's timeout/re-resolve path must get every
// one re-served after failover, and the total history must stay
// linearizable (no acked write lost, no stale value resurrected).
func TestParkedReadsSurviveCoordinatorKill(t *testing.T) {
	cfg := mustChaosConfig(t)
	victim := cfg.CoordinatorOf(store.KeyHash("k0"))
	sched, err := ParseSchedule(fmt.Sprintf("3ms:kill:%d;30ms:restart:%d", victim, victim))
	if err != nil {
		t.Fatal(err)
	}
	r := RunChaos(ChaosRunSpec{
		Seed:     11,
		Schedule: &sched,
		// A single hot key puts every operation on the victim's shard,
		// so gets are in flight against it at the moment it dies.
		Workload: ChaosOptions{Clients: 3, Keys: 1, OpsPerClient: 30},
	})
	if !r.Completed {
		t.Fatal("workload wedged: some client never finished after the failover")
	}
	if r.Abandoned > 0 {
		t.Fatalf("%d operations exhausted retries; failover should re-serve them", r.Abandoned)
	}
	if r.Check.Verdict != linearize.Linearizable {
		t.Fatalf("history not linearizable across coordinator kill:\n%s", r.Check)
	}
}

// mustChaosConfig boots the canonical chaos cluster configuration.
func mustChaosConfig(t *testing.T) *proto.Config {
	t.Helper()
	cfg, err := core.BootConfig(chaosCluster(false, false))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestShrinkIncompleteKeepsClosingSteps: plain seed 443 is incomplete,
// and slow (it completes at twice the horizon). Shrunk under that
// verdict it keeps every closing step at Active, so the shrunk run is
// slow too; with them dropped, nodes 0 and 1 stayed dead and the run
// was incomplete at any horizon.
func TestShrinkIncompleteKeepsClosingSteps(t *testing.T) {
	spec := ChaosRunSpec{Seed: 443}
	full := RunChaos(spec)
	if full.Verdict() != Incomplete || Wedged(spec) {
		t.Fatalf("plain seed 443 is %s (wedged %v), want incomplete and slow", full.Verdict(), Wedged(spec))
	}
	shrunk, _ := ShrinkSchedule(spec, full)
	closing := func(s Schedule) (n int) {
		for _, st := range s.Steps {
			if st.At >= 40*time.Millisecond {
				n++
			}
		}
		return n
	}
	if len(shrunk.Steps) >= len(full.Schedule.Steps) || closing(shrunk) != closing(full.Schedule) {
		t.Fatalf("shrunk %d -> %d steps, %d of %d closing ones kept: %s",
			len(full.Schedule.Steps), len(shrunk.Steps), closing(shrunk), closing(full.Schedule), shrunk)
	}
	spec.Schedule = &shrunk
	if r := RunChaos(spec); r.Verdict() != Incomplete || Wedged(spec) {
		t.Fatalf("shrunk schedule %s is %s (wedged %v), want incomplete and slow", shrunk, r.Verdict(), Wedged(spec))
	}
}
