// Command ringbench regenerates the tables and figures of the paper's
// evaluation section. Every experiment prints the same rows or series
// the paper reports; EXPERIMENTS.md records the paper-vs-measured
// comparison. Standard output is the same on every run of one commit
// (how long each experiment took goes to standard error), and
// testdata/fast.golden holds it for the fast experiments.
//
// Usage:
//
//	ringbench -experiment table1|fig2|fig7a|fig7c|fig8|fig9|fig10|fig11|fig12|fig13|fig16|ablation|all
//	          [-reps N] [-burst 50ms]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ring/internal/experiments"
	"ring/internal/reliability"
)

// runners maps each experiment to the function that writes its rows.
var runners = map[string]func(io.Writer, int, time.Duration) error{
	"table1":   runTable1,
	"fig2":     runFig2,
	"fig7a":    runFig7,
	"fig7c":    runFig7c,
	"fig8":     runFig8,
	"fig9":     runFig9,
	"fig10":    runFig10,
	"fig11":    runFig11,
	"fig12":    runFig12,
	"fig13":    runFig13,
	"fig16":    runFig16,
	"ablation": runAblations,
}

var order = []string{"table1", "fig2", "fig7a", "fig7c", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig16", "ablation"}

func main() {
	exp := flag.String("experiment", "all", "experiment to run (table1, fig2, fig7a, fig7c, fig8, fig9, fig10, fig11, fig12, fig13, fig16, ablation, all)")
	reps := flag.Int("reps", 31, "samples per latency point")
	burst := flag.Duration("burst", 50*time.Millisecond, "virtual-time burst window for throughput measurements")
	flag.Parse()

	// Standard output is a function of the code and the flags alone;
	// the wall-clock time each experiment took goes to standard error.
	run := func(name string) {
		start := time.Now()
		if err := experiment(os.Stdout, name, *reps, *burst); err != nil {
			fmt.Fprintf(os.Stderr, "ringbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "    (%s: %.1fs)\n", name, time.Since(start).Seconds())
	}
	if *exp == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	if _, ok := runners[*exp]; !ok {
		fmt.Fprintf(os.Stderr, "ringbench: unknown experiment %q (want %s, or all)\n",
			*exp, strings.Join(order, ", "))
		os.Exit(2)
	}
	run(*exp)
}

// experiment writes one experiment, under its name, to w.
func experiment(w io.Writer, name string, reps int, burst time.Duration) error {
	fmt.Fprintf(w, "==> %s\n", name)
	if err := runners[name](w, reps, burst); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

func runTable1(w io.Writer, _ int, burst time.Duration) error {
	rows, err := experiments.Table1(burst)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 1 (Section 1): storage scheme trade-offs, normalized to Simple")
	fmt.Fprintf(w, "%-10s %-12s %12s %16s %14s\n", "scheme", "reliability", "put latency", "put throughput", "storage cost")
	for _, r := range rows {
		rel := "None"
		if r.Tolerated > 0 {
			rel = fmt.Sprintf("%d failures", r.Tolerated)
		}
		fmt.Fprintf(w, "%-10s %-12s %11.2fx %15.2fx %13.2fx\n",
			r.Scheme, rel, r.PutLatencyX, r.PutThroughputX, r.StorageCostX)
	}
	return nil
}

func runFig2(w io.Writer, _ int, _ time.Duration) error {
	fmt.Fprint(w, experiments.FormatFig2(experiments.Fig2Reliability(reliability.Params{})))
	return nil
}

func runFig7(w io.Writer, reps int, _ time.Duration) error {
	put, err := experiments.Fig7Put(reps)
	if err != nil {
		return err
	}
	get, err := experiments.Fig7Get(reps)
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.FormatSeries("Figure 7(a,b): put latency by object size (+ get)", "µs", append(put, get)))
	return nil
}

func runFig7c(w io.Writer, _ int, _ time.Duration) error {
	fmt.Fprint(w, experiments.FormatSeries("Figure 7(c): baseline put/get latency", "µs", experiments.Fig7c()))
	return nil
}

func runFig8(w io.Writer, reps int, _ time.Duration) error {
	series, err := experiments.Fig8Move(reps)
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.FormatSeries("Figure 8: move latency by destination memgest", "µs", series))
	return nil
}

func runFig9(w io.Writer, _ int, burst time.Duration) error {
	samples, err := experiments.Fig9(4, 400e3, burst)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 9: put throughput ramp, 1 KiB values, one new 400K req/s client per second")
	fmt.Fprintf(w, "%-10s", "scheme")
	for s := 1; s <= 4; s++ {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("%dclient", s))
	}
	fmt.Fprintln(w, "   (requests/sec)")
	last := ""
	for _, s := range samples {
		if s.Label != last {
			if last != "" {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "%-10s", s.Label)
			last = s.Label
		}
		fmt.Fprintf(w, " %9.0f", s.ReqsPerSec)
	}
	fmt.Fprintln(w)
	return nil
}

func runFig10(w io.Writer, _ int, _ time.Duration) error {
	fmt.Fprint(w, experiments.FormatFig10(experiments.Fig10Pricing()))
	return nil
}

func runFig11(w io.Writer, _ int, burst time.Duration) error {
	rows, err := experiments.Fig11(burst)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 11: saturated throughput by (get:put) mix, Zipfian keys, 1 KiB values")
	fmt.Fprintf(w, "%-8s", "scheme")
	last := ""
	printed := false
	for _, r := range rows {
		if r.Label != last {
			if last != "" {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "%-8s", r.Label)
			last = r.Label
			printed = true
		}
		fmt.Fprintf(w, " %s=%8.0f", r.Mix, r.ReqsPerSec)
	}
	if printed {
		fmt.Fprintln(w)
	}
	return nil
}

func runFig12(w io.Writer, _ int, _ time.Duration) error {
	pts, err := experiments.Fig12Recovery(nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 12: coordinator metadata-recovery latency vs metadata size")
	fmt.Fprintf(w, "%12s %10s %12s\n", "metadata", "keys", "recovery")
	for _, p := range pts {
		fmt.Fprintf(w, "%9.0fKiB %10d %9.0fµs\n",
			float64(p.MetaBytes)/1024, p.Keys, float64(p.Latency)/float64(time.Microsecond))
	}
	return nil
}

func runFig13(w io.Writer, _ int, _ time.Duration) error {
	pts, err := experiments.Fig13BlockRecovery(nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 13: block recovery latency vs recovered block size")
	fmt.Fprintf(w, "%-8s %12s %12s\n", "scheme", "block", "latency")
	for _, p := range pts {
		fmt.Fprintf(w, "%-8s %9.1fKiB %9.1fµs\n",
			p.Scheme, float64(p.BlockSize)/1024, float64(p.Latency)/float64(time.Microsecond))
	}
	return nil
}

func runFig16(w io.Writer, _ int, _ time.Duration) error {
	fmt.Fprint(w, experiments.FormatFig16(experiments.Fig16Availability(reliability.Params{})))
	return nil
}

func runAblations(w io.Writer, _ int, _ time.Duration) error {
	fmt.Fprintln(w, "Ablations (design choices):")
	mv, err := experiments.AblationMoveVsMigrate(2048)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  move vs migrate (2 KiB, REP1->SRS32): move %d B / %.1fµs, client migrate %d B / %.1fµs\n",
		mv.MoveWireBytes, float64(mv.MoveLatency)/1e3,
		mv.MigrateWireBytes, float64(mv.MigrateLatency)/1e3)
	q, err := experiments.AblationQuorumVsSync(4, 1024)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  quorum vs sync Rep(4,3): quorum %.2fµs (tolerates %d unavailable), sync %.2fµs (tolerates %d)\n",
		float64(q.QuorumPut)/1e3, q.QuorumTolerates, float64(q.SyncPut)/1e3, q.SyncTolerates)
	bal := experiments.AblationBalance()
	fmt.Fprintf(w, "  memgest-group balance (max/mean memory): single group %.3f, rotated %.3f\n",
		bal.SingleGroup, bal.Rotated)
	return nil
}
