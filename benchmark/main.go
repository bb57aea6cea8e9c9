// Command benchmark measures Ring end to end and layer by layer on four
// named workloads. It builds cmd/ringd, launches the real five-process
// deployment over loopback TCP for each workload, drives it from this
// process through internal/client, checks every reply, and prints every
// metric by name with its unit. README.md defines the workloads and the
// metrics; BENCHMARK.json at the repository root is the contract the
// driver runs it by.
//
// Run it from the repository root:
//
//	go run ./benchmark -seed 1                 # all workloads, end to end and per layer
//	go run ./benchmark -workload NAME -repeat 5
//	go run ./benchmark -selfcheck              # two sets back to back against the bounds
//	go run ./benchmark --workload NAME --seed 3 --seconds 20 --trace 0   # as the driver does
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() { os.Exit(realMain()) }

func realMain() (code int) {
	var (
		name      = flag.String("workload", "", "run one workload (default: all four)")
		seed      = flag.Int64("seed", 1, "seed of the request stream; the only source of randomness")
		seconds   = flag.Int("seconds", 20, "measured seconds per run: half closed, half open, shared out over five deployments")
		trace     = flag.Int("trace", -1, "driver mode: 0 prints the end-to-end metrics, 1 the per-layer metrics, as one JSON line")
		repeat    = flag.Int("repeat", 1, "repeat the run N times on seeds seed..seed+N-1 and print median, quartiles and spread")
		selfcheck = flag.Bool("selfcheck", false, "run the set twice and compare the bounded metrics of the two against their bounds")
		smoke     = flag.Bool("smoke", false, "traced in-process run only, 2000 operations, no child processes")
		out       = flag.String("out", filepath.Join("benchmark", "out"), "directory for logs, traces, results and scratch data")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []*spec{w}
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		return 2
	}

	// Children and scratch directories must not outlive this process on
	// any exit path: normal return, error, panic (deferred calls run while
	// it unwinds) or signal.
	defer cleanupAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanupAll()
		os.Exit(130)
	}()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	o := runOpts{seed: *seed, seconds: *seconds, out: *out}

	var err error
	switch {
	case *smoke:
		err = runSmoke(selected, o)
	case *trace == 0 || *trace == 1:
		if len(selected) != 1 {
			fmt.Fprintln(os.Stderr, "benchmark: -trace needs -workload")
			return 2
		}
		err = runDriver(selected[0], o, *trace == 1)
	case *trace != -1:
		fmt.Fprintln(os.Stderr, "benchmark: -trace is 0 or 1")
		return 2
	case *selfcheck:
		err = runSelfcheck(selected, o)
	case *repeat > 1:
		err = runRepeat(selected, o, *repeat)
	default:
		err = runFull(selected, o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}
