package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// smokeOps is the length of the traced run under -smoke.
const smokeOps = 2000

// maxFailFrac is the share of failed operations beyond which a run is an
// error whatever else it measured.
const maxFailFrac = 0.001

// prepare builds cmd/ringd. The build is excluded from setup_s and
// reported as harness.build_s.
func prepare(o *runOpts) error {
	bin := filepath.Join(o.out, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	ringd, took, err := buildRingd(bin)
	if err != nil {
		return err
	}
	o.ringd, o.buildS = ringd, took.Seconds()
	return nil
}

// addLayers adds to r the per-layer numbers that do not come from the
// deployment: the layer rows and the traced in-process run.
func addLayers(w *spec, o runOpts, r *result) error {
	if err := layerRows(w, o.out, r); err != nil {
		return err
	}
	return tracedRun(w, o.seed, w.tracedOps, o.out, r)
}

// verdict turns a result's own checks into an error. A wrong reply or
// more than maxFailFrac failed operations always is one; strict adds any
// failed operation and a run with fewer than minHealthy healthy rounds.
func verdict(r *result, strict bool) error {
	if r.Wrong > 0 || r.failFrac() > maxFailFrac || (strict && r.Failed > 0) {
		return fmt.Errorf("%s: %d of %d operations failed, %d with a wrong reply (%s)",
			r.Workload, r.Failed, r.Attempted, r.Wrong, strings.Join(r.Notes, "; "))
	}
	if strict && r.Healthy < minHealthy {
		return fmt.Errorf("%s: run invalid, %d of %d rounds healthy: %s", r.Workload, r.Healthy, rounds, strings.Join(r.Invalid, "; "))
	}
	return nil
}

func printResult(r *result, defs []metricDef, title string) {
	fmt.Printf("== %s  %s  seed %d ==\n", r.Workload, title, r.Seed)
	r.print(os.Stdout, defs)
	fmt.Printf("  attempted %d, failed %d, fail_frac %.6f\n", r.Attempted, r.Failed, r.failFrac())
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, n := range r.Invalid {
		fmt.Printf("  INVALID: %s\n", n)
	}
}

// runDriver is the mode the driver uses: one workload, one JSON object
// as the last line of standard output. Unhealthy open phases are named
// on standard error and do not fail it: the bounded metrics come from
// set-up and the closed phase, and the host's stalls that make a
// generator late are not the code's.
func runDriver(w *spec, o runOpts, layers bool) error {
	if err := prepare(&o); err != nil {
		return err
	}
	r, err := measureDeployed(w, o)
	if err != nil {
		return err
	}
	defs := endToEnd
	if layers {
		defs = perLayer
		if err := addLayers(w, o, r); err != nil {
			return err
		}
	}
	fmt.Println(currentHost(o.out))
	printResult(r, allMetrics(), "all measured")
	if err := verdict(r, false); err != nil {
		return err
	}
	for _, n := range r.Invalid {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.name, n)
	}
	line, err := r.contractJSON(defs)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runFull measures every selected workload end to end and per layer,
// prints both, writes result.json and the trace files, and checks the
// bypass predictions. Unlike the driver mode it is strict: any failed
// operation or invalid run makes it fail.
func runFull(selected []*spec, o runOpts) error {
	if err := prepare(&o); err != nil {
		return err
	}
	host := currentHost(o.out)
	fmt.Println(host)
	rep := report{Host: host, Seed: o.seed, Seconds: o.seconds}
	var errs []error
	for _, w := range selected {
		r, err := measureDeployed(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := addLayers(w, o, r); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(r, endToEnd, "end to end (tracing off)")
		printResult(r, perLayer, "per layer")
		errs = append(errs, verdict(r, true))
		rep.Results = append(rep.Results, r)
	}
	path := filepath.Join(o.out, "result.json")
	if err := writeJSON(path, rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", path, filepath.Join(o.out, "trace-<workload>.json"))
	errs = append(errs, checkPredictions(rep.Results))
	return errors.Join(errs...)
}

// checkPredictions verifies the "no change expected" rows of the
// interaction table on the results themselves: the layers a workload is
// meant to bypass did no work on it.
func checkPredictions(results []*result) error {
	byName := func(name string) *result {
		for _, r := range results {
			if r.Workload == name {
				return r
			}
		}
		return nil
	}
	var failed []string
	check := func(ok bool, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		if ok {
			fmt.Println("prediction holds:", msg)
		} else {
			fmt.Println("prediction VIOLATED:", msg)
			failed = append(failed, msg)
		}
	}
	for _, r := range results {
		syncs := r.Values["trace.fsyncs_per_put"]
		if r.Workload == "rep3_1k_fsync" {
			check(syncs > 0, "%s pays fsyncs on the put path (trace.fsyncs_per_put = %v)", r.Workload, syncs)
		} else {
			check(syncs == 0, "%s bypasses the durable tier (trace.fsyncs_per_put = %v)", r.Workload, syncs)
		}
	}
	if r := byName("rep3_1k_mixed"); r != nil {
		xor := r.Values["core.parity_xor_bytes_per_op"]
		check(xor == 0, "rep3_1k_mixed bypasses gf/rs/srs (core.parity_xor_bytes_per_op = %v)", xor)
	}
	if r := byName("srs32_16k_put"); r != nil {
		xor := r.Values["core.parity_xor_bytes_per_op"]
		check(xor > 0, "srs32_16k_put exercises gf/rs/srs (core.parity_xor_bytes_per_op = %v)", xor)
	}
	vol, dur := byName("rep3_1k_mixed"), byName("rep3_1k_fsync")
	if vol != nil && dur != nil {
		a, b := vol.Values["tput_ops_s"], dur.Values["tput_ops_s"]
		check(b < a/2, "the durability tax is visible (tput_ops_s %.0f with fsync=always against %.0f volatile)", b, a)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d bypass prediction(s) violated", len(failed))
	}
	return nil
}

// runRepeat runs each selected workload n times, on seeds seed, seed+1,
// ..., and prints for every end-to-end metric the median, the quartiles
// and the spread (interquartile distance over median) beside its bound —
// the statistic the driver accepts the benchmark by. It fails on a
// spread wider than its bound and on any run's verdict.
func runRepeat(selected []*spec, o runOpts, n int) error {
	if err := prepare(&o); err != nil {
		return err
	}
	fmt.Println(currentHost(o.out))
	var errs []error
	for _, w := range selected {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			oi := o
			oi.seed = o.seed + int64(i)
			r, err := measureDeployed(w, oi)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			errs = append(errs, verdict(r, true))
			for name, v := range r.Values {
				values[name] = append(values[name], v)
			}
		}
		fmt.Printf("== %s  %d runs, seeds %d..%d ==\n", w.name, n, o.seed, o.seed+int64(n)-1)
		fmt.Printf("  %-16s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(values[d.Name])
			sp := spread(values[d.Name])
			mark := ""
			if d.Name != "setup_s" && sp > d.Bound {
				mark = "  WIDER THAN BOUND"
				errs = append(errs, fmt.Errorf("%s: %s spreads %.4f, wider than its bound %.2f", w.name, d.Name, sp, d.Bound))
			}
			fmt.Printf("  %-16s %12s %12s %12s %8.4f %6.2f%s\n", d.Name, formatValue(q1), formatValue(q2), formatValue(q3), sp, d.Bound, mark)
		}
		for _, d := range perLayer { // unbounded, for information
			if v := values[d.Name]; len(v) == n && median(v) != 0 {
				q1, q2, q3 := quartiles(v)
				fmt.Printf("  %-26s %12s %12s %12s %8.4f\n", d.Name, formatValue(q1), formatValue(q2), formatValue(q3), spread(v))
			}
		}
	}
	return errors.Join(errs...)
}

// runSelfcheck runs the end-to-end set twice back to back and prints,
// per workload and metric, how much worse the second is than the first
// beside the bound; any breach, and any run's verdict, is an error.
func runSelfcheck(selected []*spec, o runOpts) error {
	if err := prepare(&o); err != nil {
		return err
	}
	fmt.Println(currentHost(o.out))
	var errs []error
	measureSet := func() (map[string]*result, error) {
		set := make(map[string]*result, len(selected))
		for _, w := range selected {
			r, err := measureDeployed(w, o)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			errs = append(errs, verdict(r, true))
			set[w.name] = r
		}
		return set, nil
	}
	first, err := measureSet()
	if err != nil {
		return err
	}
	second, err := measureSet()
	if err != nil {
		return err
	}
	for _, w := range selected {
		a, b := first[w.name], second[w.name]
		fmt.Printf("== %s  selfcheck, seed %d ==\n", w.name, o.seed)
		fmt.Printf("  %-16s %12s %12s %8s %6s\n", "metric", "first", "second", "worse", "bound")
		for _, d := range endToEnd {
			worse := d.worse(a.Values[d.Name], b.Values[d.Name])
			mark := ""
			if worse > d.Bound {
				mark = "  BREACH"
				errs = append(errs, fmt.Errorf("%s: %s got worse by %.4f between two runs of the same code, bound %.2f", w.name, d.Name, worse, d.Bound))
			}
			fmt.Printf("  %-16s %12s %12s %+8.4f %6.2f%s\n", d.Name, formatValue(a.Values[d.Name]), formatValue(b.Values[d.Name]), worse, d.Bound, mark)
		}
		if b.Failed > a.Failed {
			errs = append(errs, fmt.Errorf("%s: fail_frac rose: %d then %d failed", w.name, a.Failed, b.Failed))
		}
	}
	return errors.Join(errs...)
}

// runSmoke is the in-process path: the traced run only, no child
// processes, nothing built. `go test` uses it to keep the benchmark
// compiling and running.
func runSmoke(selected []*spec, o runOpts) error {
	for _, w := range selected {
		r := newResult(w, o.seed)
		n := smokeOps
		if w.tracedOps < n {
			n = w.tracedOps
		}
		if err := tracedRun(w, o.seed, n, o.out, r); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(r, perLayer, "smoke: traced in-process run")
	}
	return nil
}
