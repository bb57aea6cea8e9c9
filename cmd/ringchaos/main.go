// Command ringchaos is the deterministic chaos-testing driver: it runs
// seeded nemesis schedules (crashes + restarts, partitions, flaky
// links) against the simulated cluster while an instrumented workload
// records every operation, then checks the history for per-key
// linearizability. A run is a pure function of its seed, so every
// failure line doubles as a repro command.
//
// Usage:
//
//	ringchaos -seed 42                 one run
//	ringchaos -seeds 1:100             a seed range (inclusive)
//	ringchaos -seed 42 -schedule '3ms:kill:2;20ms:restart:2'
//	                                   replay an explicit schedule
//	ringchaos -seed 42 -bug            inject the ack-before-quorum bug
//	                                   (the checker must catch it)
//	ringchaos -durable -seeds 1:100    crash-recovery schedules over the
//	                                   disk fault plane (kill -9 +
//	                                   recover-from-disk, WAL corruption,
//	                                   fsync faults)
//	ringchaos -elasticity -seeds 1:8   elasticity schedules: live scheme
//	                                   moves and join/leave resizes
//	                                   blended into the fault mix
//	ringchaos -elasticity -movebug -seed 5
//	                                   inject the ack-before-commit
//	                                   move bug (the checker must catch
//	                                   it)
//	ringchaos -seeds 1:20 -shrink=false -v
//	ringchaos -seeds 1:500 -dump out/    write failure artifacts to out/
//
// On a violation the driver greedily shrinks the failing schedule to a
// locally minimal one, prints both, and exits nonzero. With -dump it
// also writes, per failing seed, the full operation history, the
// original and shrunk schedules, and the repro command lines — the
// files the nightly CI sweep uploads as artifacts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ring/internal/linearize"
	"ring/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without os.Exit, so tests can drive it.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("ringchaos", flag.ContinueOnError)
	fs.SetOutput(errw)
	seed := fs.Int64("seed", 1, "seed for a single run")
	seeds := fs.String("seeds", "", "inclusive seed range lo:hi (overrides -seed)")
	schedule := fs.String("schedule", "", "explicit nemesis schedule (overrides the generated one)")
	bug := fs.Bool("bug", false, "inject the ack-before-quorum bug (validates the checker)")
	movebug := fs.Bool("movebug", false, "inject the ack-before-commit move bug (validates the checker)")
	durable := fs.Bool("durable", false, "disk fault plane: durable nodes, crash-recovery schedules")
	elasticity := fs.Bool("elasticity", false, "elasticity schedules: live moves and join/leave resizes in the fault mix")
	shrink := fs.Bool("shrink", true, "greedily shrink failing schedules")
	active := fs.Duration("active", 0, "nemesis window in virtual time (default 40ms)")
	budget := fs.Int("budget", 0, "linearizability search budget per key (default 2e6 states)")
	dump := fs.String("dump", "", "directory to write failure artifacts into (history, schedules, repro)")
	verbose := fs.Bool("v", false, "print per-seed stats for passing runs too")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	lo, hi := *seed, *seed
	if *seeds != "" {
		var err error
		lo, hi, err = parseSeedRange(*seeds)
		if err != nil {
			fmt.Fprintf(errw, "ringchaos: %v\n", err)
			return 2
		}
	}

	var explicit *sim.Schedule
	if *schedule != "" {
		s, err := sim.ParseSchedule(*schedule)
		if err != nil {
			fmt.Fprintf(errw, "ringchaos: %v\n", err)
			return 2
		}
		explicit = &s
	}

	failures := 0
	start := time.Now()
	for s := lo; s <= hi; s++ {
		spec := sim.ChaosRunSpec{
			Seed:        s,
			Schedule:    explicit,
			UnsafeAck:   *bug,
			UnsafeMove:  *movebug,
			Durable:     *durable,
			Elasticity:  *elasticity,
			Active:      *active,
			CheckBudget: *budget,
		}
		r := sim.RunChaos(spec)
		switch r.Check.Verdict {
		case linearize.Linearizable:
			if *verbose {
				fmt.Fprintf(out, "seed %d: ok (%d ops, %d abandoned, %d moves/resizes acked, faults %+v)\n",
					s, len(r.History), r.Abandoned, r.ElasticAcked, r.Faults)
			}
		case linearize.Exhausted:
			// Not a verdict either way; report so the budget can be raised.
			fmt.Fprintf(out, "seed %d: INCONCLUSIVE on key %q (search budget exhausted; re-run with -budget)\n",
				s, r.Check.Key)
		case linearize.Violation:
			failures++
			fmt.Fprintf(out, "seed %d: VIOLATION\n%s\n", s, indent(r.Check.String()))
			fmt.Fprintf(out, "  schedule: %s\n", r.Schedule)
			repro := fmt.Sprintf("ringchaos -seed %d", s)
			if *bug {
				repro += " -bug"
			}
			if *movebug {
				repro += " -movebug"
			}
			if *durable {
				repro += " -durable"
			}
			if *elasticity {
				repro += " -elasticity"
			}
			if explicit != nil {
				repro += fmt.Sprintf(" -schedule '%s'", explicit)
			}
			fmt.Fprintf(out, "  repro: %s\n", repro)
			var repros strings.Builder
			fmt.Fprintf(&repros, "%s\n", repro)
			if *shrink && explicit == nil {
				shrunk, runs := sim.ShrinkSchedule(spec, r.Schedule)
				fmt.Fprintf(out, "  shrunk (%d -> %d steps, %d runs): %s\n",
					len(r.Schedule.Steps), len(shrunk.Steps), runs, shrunk)
				fmt.Fprintf(out, "  repro (shrunk): %s -schedule '%s'\n", repro, shrunk)
				fmt.Fprintf(&repros, "%s -schedule '%s'\n", repro, shrunk)
			}
			if *dump != "" {
				if err := dumpFailure(*dump, s, r, repros.String()); err != nil {
					fmt.Fprintf(errw, "ringchaos: writing artifacts: %v\n", err)
					return 2
				}
			}
		}
	}

	n := hi - lo + 1
	if failures > 0 {
		fmt.Fprintf(out, "ringchaos: %d/%d seeds FAILED (%.1fs)\n", failures, n, time.Since(start).Seconds())
		return 1
	}
	fmt.Fprintf(out, "ringchaos: %d seeds ok (%.1fs)\n", n, time.Since(start).Seconds())
	return 0
}

// dumpFailure writes a failing seed's artifacts: the full operation
// history, the (generated) schedule, and the repro command lines.
// These are what the nightly sweep uploads so a red run is actionable
// without re-running anything.
func dumpFailure(dir string, seed int64, r sim.ChaosRunResult, repros string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var hist strings.Builder
	for _, op := range r.History {
		fmt.Fprintf(&hist, "%s\n", op)
	}
	files := map[string]string{
		fmt.Sprintf("seed-%d.history.txt", seed):  hist.String(),
		fmt.Sprintf("seed-%d.schedule.txt", seed): r.Schedule.String() + "\n",
		fmt.Sprintf("seed-%d.repro.txt", seed):    repros,
		fmt.Sprintf("seed-%d.check.txt", seed):    r.Check.String(),
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// parseSeedRange parses "lo:hi" (inclusive).
func parseSeedRange(s string) (int64, int64, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad -seeds %q: want lo:hi", s)
	}
	l, err := strconv.ParseInt(lo, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad -seeds %q: %v", s, err)
	}
	h, err := strconv.ParseInt(hi, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad -seeds %q: %v", s, err)
	}
	if h < l {
		return 0, 0, fmt.Errorf("bad -seeds %q: hi < lo", s)
	}
	return l, h, nil
}

// indent prefixes every line with two spaces.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n")
}
