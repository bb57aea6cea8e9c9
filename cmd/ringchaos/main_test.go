package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCleanSeedPasses(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-seed", "1"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "1 seeds ok") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestSeedRange(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-seeds", "1:3", "-v"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "3 seeds ok") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

// TestInjectedBugCaughtAndShrunk is the driver-level acceptance check:
// with -bug, some seed in a small band must fail, the output must
// carry a repro command, and the shrunk schedule it prints must itself
// reproduce the violation when replayed via -schedule.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-seeds", "1:5", "-bug"}, &out, &errw)
	if code != 1 {
		t.Fatalf("expected exit 1 with injected bug, got %d\n%s%s", code, out.String(), errw.String())
	}
	text := out.String()
	if !strings.Contains(text, "VIOLATION") || !strings.Contains(text, "repro: ringchaos -seed") {
		t.Fatalf("missing violation/repro output:\n%s", text)
	}
	// Extract the shrunk replay command and run it.
	i := strings.Index(text, "repro (shrunk): ")
	if i < 0 {
		t.Fatalf("no shrunk repro line:\n%s", text)
	}
	line := text[i+len("repro (shrunk): "):]
	line = line[:strings.IndexByte(line, '\n')]
	// Form: ringchaos -seed N -bug -schedule '...'
	parts := strings.SplitN(line, "-schedule '", 2)
	if len(parts) != 2 {
		t.Fatalf("malformed shrunk repro %q", line)
	}
	sched := strings.TrimSuffix(strings.TrimSpace(parts[1]), "'")
	seedArgs := strings.Fields(parts[0])[1:] // drop "ringchaos"
	args := append(seedArgs, "-schedule", sched)
	var out2, errw2 strings.Builder
	if code := run(args, &out2, &errw2); code != 1 {
		t.Fatalf("shrunk repro %q did not reproduce (exit %d)\n%s%s", line, code, out2.String(), errw2.String())
	}
}

// TestDumpWritesArtifacts pins the -dump contract the nightly workflow
// relies on: every failing seed leaves history, schedule, repro, and
// check files behind for artifact upload.
func TestDumpWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	var out, errw strings.Builder
	if code := run([]string{"-seeds", "1:5", "-bug", "-dump", dir}, &out, &errw); code != 1 {
		t.Fatalf("expected exit 1 with injected bug, got %d\n%s%s", code, out.String(), errw.String())
	}
	// Find the failing seed from the output and check its files.
	i := strings.Index(out.String(), "seed ")
	text := out.String()[i:]
	seed := strings.Fields(strings.TrimSuffix(text[:strings.IndexByte(text, ':')], ":"))[1]
	for _, suffix := range []string{"history.txt", "schedule.txt", "repro.txt", "check.txt"} {
		name := filepath.Join(dir, "seed-"+seed+"."+suffix)
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("missing artifact: %v", err)
		}
		if len(b) == 0 {
			t.Fatalf("artifact %s is empty", name)
		}
	}
}

// TestDurableSeedsPass sweeps a band of generated crash-recovery
// schedules over the disk fault plane: recovered nodes must keep every
// acknowledged write and the history must stay linearizable. The band
// is the one ci.sh runs; it was 1:3 while seeds 18 and 19 were red.
func TestDurableSeedsPass(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-durable", "-seeds", "1:24"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "24 seeds ok") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

// TestDurableReproSchedules pins one-line repro commands for each
// disk-fault recovery path as regression tests: kill -9 leaving a torn
// WAL tail, a CRC-detected bit flip in the WAL, and a disk whose
// fsyncs fail (the node must crash-stop, then recover once healed).
// Each must recover into a linearizable history.
//
// The damaged-stash cases are one bug: a store whose WAL lost a suffix
// to corruption recovers an older state than its own Bitcask had —
// versions purged since are back — and installed it before the full
// transfer it owes, which only adds entries; once the key's tombstone
// had been reclaimed everywhere, a get returned the resurrected value.
// Seeds 18 and 19 are the shrunk schedules that were red at the commit
// before the fix (core.takeStash); seed 22 reaches the same bug at the
// fsync timing of the WAL-only group commit that landed with it.
func TestDurableReproSchedules(t *testing.T) {
	for _, tc := range []struct{ name, seed, schedule string }{
		{"torn-tail", "2", "10ms:kill:1;16ms:restart:1"},
		{"crc-corruption", "2", "10ms:kill:1;12ms:corrupt:1;16ms:restart:1"},
		{"fsyncgate", "2", "8ms:fsyncerr:2;14ms:fsyncok:2;14ms:restart:2"},
		{"damaged-stash-18", "18", "1.63308ms:fsyncerr:2;4.036666ms:fsyncok:2;4.036666ms:restart:2;19.539583ms:fsyncerr:1;21.425213ms:fsyncok:1;21.425213ms:restart:1;29.124656ms:kill:2;30.528039ms:corrupt:2;31.931422ms:restart:2"},
		{"damaged-stash-19", "19", "372.597µs:fsyncerr:1;25.43746ms:kill:0;26.721165ms:corrupt:0;28.004871ms:restart:0"},
		{"damaged-stash-22", "22", "2.055434ms:kill:0;9.65799ms:kill:2;13.007458ms:restart:2;17.918918ms:kill:2;19.304237ms:corrupt:2;20.689557ms:restart:2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw strings.Builder
			args := []string{"-durable", "-seed", tc.seed, "-schedule", tc.schedule}
			if code := run(args, &out, &errw); code != 0 {
				t.Fatalf("repro `ringchaos %s` failed (exit %d)\n%s%s",
					strings.Join(args, " "), code, out.String(), errw.String())
			}
		})
	}
}

// TestElasticityReproSchedules pins the shrunk repros of elasticity
// seeds 41 and 127: stale reads from leave/join/kill alone, no message
// loss. Both were one bug — evicting a spare took a second spare out of
// the configuration with it (stripRoles, now core.evict), so after
// `leave:5` healthy node 6 was no longer a member and was never told.
// The third is a role regained: redundancy node 3 leaves, comes back as
// a spare and, two leaves later, is handed its slots again. It used to
// find the tables it left with, skip recovery, and — once coordinator 1
// was killed — be the copy shard 1 was recovered from: a value put
// before it left was read after every write since. The fourth returned
// bytes no client wrote when it was shrunk (a parity node replaced at
// 20 ms decoded for the coordinator replaced at 31 ms); it has been
// green since before the want table and stays pinned.
func TestElasticityReproSchedules(t *testing.T) {
	for _, tc := range []struct{ name, seed, schedule string }{
		{"spare-leak-41", "41", "1.266648ms:leave:5;3.007224ms:join:5;9.207951ms:leave:1;12.656982ms:join:1;24.212436ms:leave:5"},
		{"spare-leak-127", "127", "1.38407ms:leave:1;3.303297ms:join:1;6.140004ms:leave:2;7.898554ms:join:2;12.347831ms:kill:0;12.881046ms:restart:0;18.31042ms:leave:2;30.399853ms:leave:5;35.115352ms:join:5"},
		{"regained-role-3", "3", "2ms:leave:3;8ms:join:3;10ms:leave:5;14ms:join:5;16ms:leave:6;24ms:kill:1"},
		{"phantom-333", "333", "12.140089ms:flaky:7:2:35µs;16.481737ms:flaky:5:0:1.215ms;20.039443ms:kill:3;21.088248ms:restart:3;26.92362ms:convert:2:2;31.830607ms:kill:1;33.817373ms:restart:1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw strings.Builder
			args := []string{"-elasticity", "-seed", tc.seed, "-schedule", tc.schedule}
			if code := run(args, &out, &errw); code != 0 {
				t.Fatalf("repro `ringchaos %s` failed (exit %d)\n%s%s",
					strings.Join(args, " "), code, out.String(), errw.String())
			}
		})
	}
}

func TestBadFlags(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-seeds", "9:1"}, &out, &errw); code != 2 {
		t.Fatalf("expected exit 2 for bad range, got %d", code)
	}
	if code := run([]string{"-schedule", "1ms:frobnicate"}, &out, &errw); code != 2 {
		t.Fatalf("expected exit 2 for bad schedule, got %d", code)
	}
}
