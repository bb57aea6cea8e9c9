package sim

import (
	"testing"
	"time"

	"ring/internal/linearize"
)

// TestElasticitySeedsLinearizable is the elasticity chaos lane: a band
// of seeds whose schedules blend live scheme moves and graceful
// join/leave resizes into the usual fault mix, each of which must
// yield a linearizable client history. Across the band the control
// agent must actually land operations — a lane that never completes a
// move or resize tests nothing.
func TestElasticitySeedsLinearizable(t *testing.T) {
	acked := 0
	for seed := int64(1); seed <= 8; seed++ {
		r := RunChaos(ChaosRunSpec{Seed: seed, Elasticity: true})
		if r.Check.Verdict != linearize.Linearizable {
			t.Errorf("seed %d: %v\nrepro: ringchaos -elasticity -seed %d\nschedule: %s\n%s",
				seed, r.Check.Verdict, seed, r.Schedule, r.Check)
		}
		if !r.Completed {
			t.Errorf("seed %d: workload did not complete before the horizon", seed)
		}
		acked += r.ElasticAcked
	}
	if acked == 0 {
		t.Fatal("no elastic control operation completed on any seed; the lane is inert")
	}
}

// TestElasticityDeterministicReplay extends the replay contract to the
// elasticity lane: same spec, same schedule, same fault counts, same
// history, same control-plane outcome.
func TestElasticityDeterministicReplay(t *testing.T) {
	for _, seed := range []int64{3, 7, 11} {
		a := RunChaos(ChaosRunSpec{Seed: seed, Elasticity: true})
		b := RunChaos(ChaosRunSpec{Seed: seed, Elasticity: true})
		if a.Schedule.String() != b.Schedule.String() {
			t.Fatalf("seed %d: schedules differ:\n%s\n%s", seed, a.Schedule, b.Schedule)
		}
		if a.Faults != b.Faults {
			t.Fatalf("seed %d: fault stats differ: %+v vs %+v", seed, a.Faults, b.Faults)
		}
		if a.ElasticAcked != b.ElasticAcked || a.ElasticAbandoned != b.ElasticAbandoned {
			t.Fatalf("seed %d: control-plane outcomes differ: %d/%d vs %d/%d",
				seed, a.ElasticAcked, a.ElasticAbandoned, b.ElasticAcked, b.ElasticAbandoned)
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

// TestElasticityScheduleRoundTrip pins the wire format of the new step
// kinds: generated elasticity schedules must survive String ->
// ParseSchedule unchanged, and malformed elastic steps must not parse.
func TestElasticityScheduleRoundTrip(t *testing.T) {
	cfg := mustChaosConfig(t)
	for seed := int64(1); seed <= 10; seed++ {
		s := GenElasticitySchedule(seed, cfg.AllNodes(), 40*time.Millisecond, 6, chaosMemgests())
		p, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if p.String() != s.String() {
			t.Fatalf("seed %d: round trip changed schedule:\n%s\n%s", seed, s, p)
		}
	}
	for _, good := range []string{"3ms:move:2:4", "5ms:leave:5", "9ms:join:5"} {
		p, err := ParseSchedule(good)
		if err != nil {
			t.Fatalf("%q must parse: %v", good, err)
		}
		if p.String() != good {
			t.Fatalf("%q round-tripped to %q", good, p)
		}
	}
	// The old token still reads, as a move: pinned repro strings use it.
	if p, err := ParseSchedule("3ms:convert:2:4"); err != nil || p.String() != "3ms:move:2:4" {
		t.Fatalf("3ms:convert:2:4 parsed to %q, %v; want 3ms:move:2:4", p, err)
	}
	for _, bad := range []string{"3ms:move:2", "3ms:move", "3ms:convert:2", "5ms:leave", "9ms:join"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Fatalf("%q must not parse", bad)
		}
	}
}

// TestChaosUnsafeMoveCaught validates the elasticity lane end to
// end the same way TestChaosUnsafeAckCaught validates the write path:
// an injected ack-before-journal transition bug (the move
// acknowledges before the destination write is quorum-durable and
// eagerly purges the source) must produce a linearizability violation
// on some seed, and the shrunk schedule must still reproduce it after
// a round trip through its string form.
func TestChaosUnsafeMoveCaught(t *testing.T) {
	var spec ChaosRunSpec
	var full ChaosRunResult
	found := false
	for seed := int64(1); seed <= 30; seed++ {
		spec = ChaosRunSpec{Seed: seed, Elasticity: true, UnsafeMove: true}
		full = RunChaos(spec)
		if full.Check.Verdict == linearize.Violation {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("injected ack-before-journal move bug not caught on any seed in 1..30")
	}

	shrunk, runs := ShrinkSchedule(spec, full)
	if len(shrunk.Steps) > len(full.Schedule.Steps) {
		t.Fatalf("shrink grew the schedule: %d -> %d steps", len(full.Schedule.Steps), len(shrunk.Steps))
	}
	if runs == 0 {
		t.Fatal("shrinker did not run")
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
