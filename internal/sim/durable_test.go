package sim

import (
	"testing"
	"time"

	"ring/internal/linearize"
	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/store"
)

// TestDurableChaosSeedsLinearizable is the disk-fault counterpart of
// the bread-and-butter chaos check: a band of seeds, each a generated
// crash-recovery schedule (kill -9 + recover-from-disk, WAL bit
// flips, fsync faults) over the mixed Rep/SRS cluster with fsync=
// always, must yield a linearizable history — every write the cluster
// acknowledged survives every crash in the schedule.
func TestDurableChaosSeedsLinearizable(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := RunChaos(ChaosRunSpec{Seed: seed, Durable: true})
		if r.Check.Verdict != linearize.Linearizable {
			t.Errorf("seed %d: %v\nrepro: ringchaos -durable -seed %d\nschedule: %s\n%s",
				seed, r.Check.Verdict, seed, r.Schedule, r.Check)
		}
		if !r.Completed {
			t.Errorf("seed %d: workload did not complete before the horizon", seed)
		}
	}
}

// TestDurableChaosDeterministicReplay pins replayability with the disk
// fault plane active: the crash-truncation points, corruption bits,
// and fsync faults are all seeded, so two runs of the same spec are
// bit-identical.
func TestDurableChaosDeterministicReplay(t *testing.T) {
	for _, seed := range []int64{3, 7} {
		a := RunChaos(ChaosRunSpec{Seed: seed, Durable: true})
		b := RunChaos(ChaosRunSpec{Seed: seed, Durable: true})
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

// TestDurableScheduleRoundTrip pins the wire format of the new disk
// nemesis steps: generated durable schedules must survive String ->
// ParseSchedule unchanged.
func TestDurableScheduleRoundTrip(t *testing.T) {
	cfg := mustChaosConfig(t)
	seen := map[NemesisKind]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		s := GenDurableSchedule(seed, cfg.AllNodes(), 40*time.Millisecond)
		for _, st := range s.Steps {
			seen[st.Kind] = true
		}
		parsed, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if parsed.String() != s.String() {
			t.Fatalf("seed %d: round trip changed the schedule:\n%s\n%s", seed, s, parsed)
		}
	}
	for _, k := range []NemesisKind{NemKill, NemRestart, NemCorrupt, NemFsyncErr, NemFsyncOK, NemFsyncSlow} {
		if !seen[k] {
			t.Errorf("40 seeds never generated nemesis kind %d", k)
		}
	}
}

// TestDurableCorruptionDetected pins the CRC story end to end inside
// the simulator: kill a node, flip a bit in its WAL, restart it — the
// recovered durable engine must either have truncated the corruption
// away or flagged the log damaged, and in the damaged case the node
// must advertise nothing recovered beyond what the CRC validated; the
// cluster then still serves a linearizable history.
func TestDurableCorruptionDetected(t *testing.T) {
	var victim proto.NodeID = 1
	sched := Schedule{Steps: []NemesisStep{
		{At: 10 * time.Millisecond, Kind: NemKill, A: victim},
		{At: 12 * time.Millisecond, Kind: NemCorrupt, A: victim},
		{At: 16 * time.Millisecond, Kind: NemRestart, A: victim},
	}}
	corrupted := false
	for seed := int64(1); seed <= 10 && !corrupted; seed++ {
		spec := ChaosRunSpec{Seed: seed, Durable: true, Schedule: &sched}
		r := RunChaos(spec)
		if r.Check.Verdict != linearize.Linearizable {
			t.Fatalf("seed %d: corruption broke linearizability: %s\nrepro: ringchaos -durable -seed %d -schedule '%s'",
				seed, r.Check, seed, sched)
		}
		if r.Faults.Corrupted > 0 {
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("no seed in 1..10 produced an actual WAL bit flip")
	}
}

// TestDurableFsyncErrorCrashStops pins fsyncgate semantics in the
// simulator: when a node's disk starts failing fsyncs, the node must
// stop (crash-stop) rather than keep acknowledging writes it cannot
// make durable.
func TestDurableFsyncErrorCrashStops(t *testing.T) {
	cfg := mustChaosConfig(t)
	s := New(cfg, chaosCluster(false, false).Opts, DefaultModel())
	if err := s.EnableDurable(42, replog.DurableOptions{Policy: replog.FsyncAlways}); err != nil {
		t.Fatal(err)
	}
	s.EnableTicks(100 * time.Microsecond)

	var victim proto.NodeID = 1
	s.At(2*time.Millisecond, func(time.Duration) { s.FailDisk(victim, true) })
	// Heartbeats and ticks dirty nothing; drive a write through the
	// victim coordinator so its group commit actually fsyncs.
	w := NewChaosHarness(s, cfg, ChaosOptions{
		Clients: 2, OpsPerClient: 40, Seed: 42,
		ThinkTime: 100 * time.Microsecond, Memgests: chaosMemgests(),
	})
	w.Run(20 * time.Millisecond)

	if !s.Dead(victim) {
		t.Fatal("node with a failing disk kept running past its next group commit")
	}
}

// TestCoordinatorKilledBetweenFanoutAndSync pins the hazard that only
// acknowledgements waiting for the disk opens: a coordinator fans a
// write out before its own write-ahead append is fsynced, so a kill in
// between (here a power cut: the disk keeps an rng-chosen part of the
// unsynced bytes) restarts it holding a MaxSeq and a version *below*
// what its replicas hold. That is safe because a recovered coordinator
// serves nothing until its delta sync is in: the replicas' records past
// its floor re-install the lost entry, their MaxSeq advances its
// sequence allocator past the lost sequence, and only then does it
// coordinate the next write to the same key (DESIGN.md section 9). One
// client, one key: every retry and every later write lands on the
// entry the crash orphaned.
func TestCoordinatorKilledBetweenFanoutAndSync(t *testing.T) {
	const mg, key = proto.MemgestID(2), "k0" // Rep(3,3)
	opts := replog.DurableOptions{Policy: replog.FsyncAlways}
	lost := 0
	for seed := int64(1); seed <= 8; seed++ {
		cfg := mustChaosConfig(t)
		s := New(cfg, chaosCluster(false, false).Opts, DefaultModel())
		if err := s.EnableDurable(seed, opts); err != nil {
			t.Fatal(err)
		}
		s.EnableTicks(100 * time.Microsecond)
		h := NewChaosHarness(s, cfg, ChaosOptions{
			Seed: seed, Clients: 1, Keys: 1, OpsPerClient: 60,
			ThinkTime: 200 * time.Microsecond, Memgests: []proto.MemgestID{mg},
		})
		shard := uint32(cfg.ShardOf(store.KeyHash(key)))
		coord := cfg.Coords[shard]
		killed := false
		for !h.Done() && s.Now() < 100*time.Millisecond && s.Step() {
			if killed || s.Now() < 3*time.Millisecond {
				continue
			}
			d := s.Node(coord).MetricsSnapshot().Durable
			if d.Appends == d.AppendsSynced {
				continue
			}
			// The coordinator just ran a write: append buffered, RepAppends
			// on the wire, nothing fsynced. It is the shard's only writer
			// in its first life, so it has allocated sequences 1..Appends.
			killed = true
			s.Kill(coord)
			replayed, err := replog.OpenDurable(s.DiskFS(coord), opts)
			if err != nil {
				t.Fatal(err)
			}
			if rs := replayed.Recovered()[replog.ShardKey{Memgest: mg, Shard: shard}]; rs == nil || uint64(rs.MaxSeq) < d.Appends {
				lost++
			}
			s.At(s.Now()+time.Millisecond, func(time.Duration) { s.Restart(coord) })
		}
		if !killed {
			t.Fatalf("seed %d: never caught the coordinator between fan-out and sync", seed)
		}
		if !h.Done() {
			t.Errorf("seed %d: workload did not complete after the restart", seed)
		}
		if r := linearize.Check(h.History(), 0); r.Verdict != linearize.Linearizable {
			t.Errorf("seed %d: %s", seed, r)
		}
	}
	if lost == 0 {
		t.Fatal("no seed in 1..8 tore the coordinator's append off its disk: the hazard was never exercised")
	}
}

// TestDurableChaosMerges is the durable chaos run built by hand from
// its pieces, with one change: 2 KiB WAL segments instead of 1 MiB
// ones, which no run of the band ever seals. Every node's log then
// seals and merges while the nemesis kills nodes, flips WAL bits and
// fails fsyncs, and every seed must still yield a linearizable history.
// 1:159 is the longest all-green prefix; 160 is red as it is on the
// band (and 186, 202 and 307 are red after it).
func TestDurableChaosMerges(t *testing.T) {
	const seeds = 159
	opts := replog.DurableOptions{Policy: replog.FsyncAlways, WALSegmentBytes: 2 << 10}
	var merges uint64
	for seed := int64(1); seed <= seeds; seed++ {
		cfg := mustChaosConfig(t)
		s := New(cfg, chaosCluster(false, false).Opts, DefaultModel())
		if err := s.EnableDurable(seed, opts); err != nil {
			t.Fatal(err)
		}
		s.EnableTicks(100 * time.Microsecond)
		spec := ChaosRunSpec{Seed: seed}.withDefaults()
		w := ChaosOptions{Seed: seed, Memgests: chaosMemgests()}.withDefaults()
		w.ThinkTime = spec.Active / time.Duration(w.OpsPerClient)
		sched := GenDurableSchedule(seed, cfg.AllNodes(), spec.Active)
		sched.Apply(s, seed*1_000_000_007+12345)
		h := NewChaosHarness(s, cfg, w)
		if r := linearize.Check(h.Run(spec.Horizon), 0); r.Verdict != linearize.Linearizable {
			t.Errorf("seed %d over 2 KiB segments: %v\nschedule: %s\n%s", seed, r.Verdict, sched, r)
		}
		for _, id := range cfg.AllNodes() {
			if d := s.Node(id).MetricsSnapshot().Durable; d != nil {
				merges += d.Merges
			}
		}
	}
	if merges == 0 {
		t.Fatalf("%d seeds over 2 KiB segments never merged", seeds)
	}
}
