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
//	ringchaos -seed 42 -skew -20       the same run with every packet
//	                                   charged 20 bytes less: one more
//	                                   timing draw of the same protocol
//	ringchaos -seeds 1:20 -shrink=false -v
//	ringchaos -seeds 1:500 -dump out/    write failure artifacts to out/
//	ringchaos -expect chaos.expect     run every band the file declares
//	                                   and exit 1 unless the seeds that
//	                                   are not ok are its entries at
//	                                   -skew (default 0)
//	ringchaos -expect chaos.expect -update
//	                                   run the bands at the six offsets,
//	                                   shrink every entry at its first,
//	                                   and rewrite the file
//
// A seed's verdict is ok, violation (the history is not linearizable),
// incomplete (linearizable, but clients were still unfinished at the
// horizon, which usually means the cluster wedged) or inconclusive (the
// checker's search budget ran out); any verdict but ok exits 1. Seeds run on GOMAXPROCS
// workers and are printed in seed order.
//
// On a seed that is not ok the driver greedily shrinks the schedule to a
// locally minimal one with the same verdict, prints both, and exits
// nonzero; an incomplete seed also says whether it completes at twice
// the horizon (slow) or not (wedged). With -dump it
// also writes, per seed that is not ok, the full operation history,
// the original and shrunk schedules, and the repro command lines — the
// files the nightly CI sweep uploads as artifacts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ring/internal/sim"
)

func main() {
	if os.Getenv("GOGC") == "" {
		// Runs allocate throughout and keep little: fewer collections
		// for a larger heap. On 2 vCPUs plain seeds 1:500 took 6.5-7.0 s
		// at the default and 4.5-4.7 s here, peak RSS 31 -> 59 MB.
		debug.SetGCPercent(400)
	}
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
	skew := fs.Int("skew", 0, "bytes added to every packet's size when the simulator charges it (a timing draw; 0 is the calibrated model)")
	expect := fs.String("expect", "", "run every band this file declares; exit 1 unless the seeds that are not ok are its entries at -skew")
	update := fs.Bool("update", false, "with -expect: run the bands at the six offsets and rewrite the file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *expect != "" || *update {
		var bad []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "expect", "update", "skew", "dump":
			default:
				bad = append(bad, "-"+f.Name)
			}
		})
		switch {
		case *expect == "":
			fmt.Fprintln(errw, "ringchaos: -update rewrites the file -expect names")
			return 2
		case len(bad) > 0:
			fmt.Fprintf(errw, "ringchaos: -expect runs the bands its file declares; %s does not apply\n", strings.Join(bad, " "))
			return 2
		case *update && *skew != 0:
			fmt.Fprintln(errw, "ringchaos: -update runs all six offsets; drop -skew")
			return 2
		}
		g := gate{path: *expect, dump: *dump, out: out, errw: errw}
		if *update {
			return g.update()
		}
		return g.check(*skew)
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

	base := sim.ChaosRunSpec{
		Schedule:    explicit,
		UnsafeAck:   *bug,
		UnsafeMove:  *movebug,
		Durable:     *durable,
		Elasticity:  *elasticity,
		Active:      *active,
		CheckBudget: *budget,
		Skew:        *skew,
	}
	start := time.Now()
	counts := tally{}
	var dumpErr error
	sweep(lo, hi, func(s int64) outcome {
		spec := base
		spec.Seed = s
		return runSeed(spec, *shrink && explicit == nil, *dump != "")
	}, func(o outcome) {
		counts[o.verdict]++
		if o.verdict != sim.OK || *verbose {
			io.WriteString(out, o.text)
		}
		if o.kept != nil && dumpErr == nil {
			dumpErr = dumpFailure(*dump, o.seed, *o.kept, o.repros)
		}
	})
	if dumpErr != nil {
		fmt.Fprintf(errw, "ringchaos: writing artifacts: %v\n", dumpErr)
		return 2
	}

	n := hi - lo + 1
	if failed := counts.failed(); failed > 0 {
		fmt.Fprintf(out, "ringchaos: %d/%d seeds FAILED: %s (%.1fs)\n", failed, n, counts, time.Since(start).Seconds())
		return 1
	}
	fmt.Fprintf(out, "ringchaos: %d seeds ok (%.1fs)\n", n, time.Since(start).Seconds())
	return 0
}

// failing are the verdicts that fail a seed, in the order a summary
// names them.
var failing = []string{sim.Violation, sim.Incomplete, sim.Inconclusive}

// tally counts seeds by verdict.
type tally map[string]int

func (t tally) failed() int {
	n := 0
	for _, v := range failing {
		n += t[v]
	}
	return n
}

// String names the failing verdicts: "39 violation, 13 incomplete".
func (t tally) String() string {
	var parts []string
	for _, v := range failing {
		if t[v] > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", t[v], v))
		}
	}
	if len(parts) == 0 {
		return "all ok"
	}
	return strings.Join(parts, ", ")
}

// outcome is one seed's run as the driver reports it.
type outcome struct {
	seed    int64
	verdict string
	text    string              // the lines the seed prints
	repros  string              // its repro command lines (not ok only)
	shrunk  string              // the shrunk schedule's repro (when shrunk)
	pace    string              // slow or wedged (when an incomplete seed is shrunk)
	kept    *sim.ChaosRunResult // the run, when its artifacts are wanted
}

// runSeed runs spec and words the outcome. shrink spends further runs
// shrinking a failing schedule, and an incomplete seed's one more run
// at twice the horizon; keep holds on to a failing run for its
// artifacts.
func runSeed(spec sim.ChaosRunSpec, shrink, keep bool) outcome {
	r := sim.RunChaos(spec)
	o := outcome{seed: spec.Seed, verdict: r.Verdict()}
	repro := reproOf(spec)
	var b strings.Builder
	switch o.verdict {
	case sim.OK, sim.Incomplete:
		word := "ok"
		if o.verdict == sim.Incomplete {
			word = "INCOMPLETE"
		}
		fmt.Fprintf(&b, "seed %d: %s (%d ops, %d abandoned, %d moves/resizes acked, faults %+v)\n",
			spec.Seed, word, len(r.History), r.Abandoned, r.ElasticAcked, r.Faults)
	case sim.Inconclusive:
		fmt.Fprintf(&b, "seed %d: INCONCLUSIVE on key %q (search budget exhausted; re-run with -budget)\n",
			spec.Seed, r.Check.Key)
	case sim.Violation:
		fmt.Fprintf(&b, "seed %d: VIOLATION\n%s\n", spec.Seed, indent(r.Check.String()))
		fmt.Fprintf(&b, "  schedule: %s\n", r.Schedule)
		fmt.Fprintf(&b, "  repro: %s\n", repro)
	}
	if o.verdict == sim.OK {
		o.text = b.String()
		return o
	}
	o.repros = repro + "\n"
	if shrink {
		shrunk, runs := sim.ShrinkSchedule(spec, r)
		o.shrunk = fmt.Sprintf("%s -schedule '%s'", repro, shrunk)
		fmt.Fprintf(&b, "  shrunk (%d -> %d steps, %d runs): %s\n",
			len(r.Schedule.Steps), len(shrunk.Steps), runs, shrunk)
		fmt.Fprintf(&b, "  repro (shrunk): %s\n", o.shrunk)
		o.repros += o.shrunk + "\n"
		if o.verdict == sim.Incomplete {
			o.pace = "slow"
			if sim.Wedged(spec) {
				o.pace = "wedged"
			}
			fmt.Fprintf(&b, "  at twice the horizon: %s\n", o.pace)
		}
	}
	o.text = b.String()
	if keep {
		o.kept = &r
	}
	return o
}

// reproOf is the command line that replays spec.
func reproOf(spec sim.ChaosRunSpec) string {
	repro := fmt.Sprintf("ringchaos -seed %d", spec.Seed)
	if spec.UnsafeAck {
		repro += " -bug"
	}
	if spec.UnsafeMove {
		repro += " -movebug"
	}
	if spec.Durable {
		repro += " -durable"
	}
	if spec.Elasticity {
		repro += " -elasticity"
	}
	if spec.Skew != 0 {
		repro += fmt.Sprintf(" -skew %d", spec.Skew)
	}
	if spec.Schedule != nil {
		repro += fmt.Sprintf(" -schedule '%s'", spec.Schedule)
	}
	return repro
}

// sweep runs seeds lo..hi on GOMAXPROCS workers and hands their
// outcomes to emit in seed order, on the caller's goroutine. A run is a
// pure function of its spec, so the output is the same for any number
// of workers.
func sweep(lo, hi int64, one func(seed int64) outcome, emit func(outcome)) {
	n := hi - lo + 1
	done := make([]chan outcome, n)
	for i := range done {
		done[i] = make(chan outcome, 1)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(int64(runtime.GOMAXPROCS(0)), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < n; i = next.Add(1) - 1 {
				done[i] <- one(lo + i)
			}
		}()
	}
	for _, c := range done {
		emit(<-c)
	}
	wg.Wait()
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
