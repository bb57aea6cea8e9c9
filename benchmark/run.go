package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"ring/internal/client"
	"ring/internal/replog"
	"ring/internal/status"
	"ring/internal/wal"
)

// runOpts is what every measurement of one invocation shares.
type runOpts struct {
	seed    int64
	seconds int    // measured seconds per run: half closed, half open, shared out evenly over the rounds
	out     string // directory for logs, traces, results and scratch data
	ringd   string // path of the built cmd/ringd binary
	buildS  float64
}

const (
	// rounds is how many fresh deployments one run measures. Deployments
	// of the same code settle at levels a few percent apart and a stall of
	// the host lasts seconds, so a longer phase on one deployment repeats
	// no better; the median over rounds does, and every set-up is used.
	rounds = 5
	// minHealthy is the number of rounds whose generator must have been
	// healthy for the run's open-phase numbers to count.
	minHealthy = rounds/2 + 1
	// warmup is a closed phase run before the measured ones and thrown
	// away: the preload has already dialled every connection and grown
	// the heaps, this lets the Go schedulers reach steady state.
	warmup = time.Second
	// closedStream is the length of the stream the closed phase walks
	// (wrapping); the open phase takes exactly rate x duration operations
	// from the front of the same stream.
	closedStream = 1 << 17

	// Generator health limits of the open phase; see README.md. The pacer
	// dispatches 0.3 to 0.6 ms late at the 99th percentile on a healthy
	// round; one 20 ms stall of a virtual CPU in a 2 s round already puts
	// that above 1 ms, so the limit sits above what stalls alone produce.
	maxLagP99     = 3 * time.Millisecond
	maxLoadgenCPU = 0.60
)

// selfCPU is the CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// roundSeed derives the seed of one round's stream from the run's.
func roundSeed(seed int64, round int) int64 {
	x := uint64(seed)*rounds + uint64(round)
	return int64(splitmix64(&x) >> 1)
}

// summed names the metrics that add up over rounds; every other metric
// of a run is the median of its healthy rounds.
var summed = map[string]bool{"put_samples": true, "get_samples": true, "move_samples": true, "client.timeouts": true}

// measureDeployed runs one workload against the real five-process
// deployment, rounds times over: set-up, warm-up, closed phase, open
// phase, each on a fresh deployment and a stream of its own. Tracing is
// always off here.
func measureDeployed(w *spec, o runOpts) (*result, error) {
	measured := make([]*result, rounds)
	for i := range measured {
		var err error
		if measured[i], err = measureRound(w, o, i); err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
	}
	r := newResult(w, o.seed)
	r.fold(measured)
	r.set("harness.build_s", o.buildS)
	return r, nil
}

// fold joins the rounds of a run into r: operations are counted over
// all of them and every value is the median of the rounds that have it
// (the sum for the summed names). A round whose generator was unhealthy
// is named; it has no open-phase values to contribute.
func (r *result) fold(measured []*result) {
	for i, rd := range measured {
		r.Attempted += rd.Attempted
		r.Failed += rd.Failed
		r.Wrong += rd.Wrong
		for _, n := range rd.Notes {
			r.Notes = append(r.Notes, fmt.Sprintf("round %d: %s", i, n))
		}
		for _, n := range rd.Invalid {
			r.Invalid = append(r.Invalid, fmt.Sprintf("round %d, open phase left out: %s", i, n))
		}
		if len(rd.Invalid) == 0 {
			r.Healthy++
		}
		r.Rounds = append(r.Rounds, rd.Values)
	}
	r.Correct = r.Failed == 0
	byName := make(map[string][]float64)
	for _, values := range r.Rounds {
		for name, v := range values {
			byName[name] = append(byName[name], v)
		}
	}
	for name, vs := range byName {
		if summed[name] {
			var sum float64
			for _, v := range vs {
				sum += v
			}
			r.set(name, sum)
		} else {
			r.set(name, median(vs))
		}
	}
	r.set("fail_frac", r.failFrac())
	r.set("loadgen.healthy_rounds", float64(r.Healthy))
}

// measureRound measures one deployment: set-up with warm-up, closed phase
// with a scrape of the counters ringd exports before and after it, open
// phase. The result's Values are this round's alone.
func measureRound(w *spec, o runOpts, round int) (*result, error) {
	seed := roundSeed(o.seed, round)
	r := newResult(w, seed)
	per := time.Duration(o.seconds) * time.Second / (2 * rounds)
	openOps := int(w.openRate * per.Seconds())
	ops := w.stream(seed, openOps+closedStream)
	closedLists := split(ops[openOps:])

	t0 := time.Now()
	dep, err := launch(o.ringd, o.out, w)
	if err != nil {
		return nil, err
	}
	defer dep.discard()
	conns, err := dialConns(dep.fabric(), nodeCount, w, seed)
	if err != nil {
		return nil, err
	}
	defer func() { closeConns(conns) }()
	if err := preload(conns); err != nil {
		return nil, err
	}
	// Memory is read here, where every round has done the same work: the
	// peak at the end of the round also holds what a slow host queued up.
	r.set("rss_loaded_mb", rssPeakMB(dep.pids))
	// Preload issued a put and a get per key, and a move for half of them
	// on a preMove workload; all succeeded or we would not be here.
	r.Attempted += 2 * w.keys
	if w.preMove {
		r.Attempted += w.keys / 2
	}

	retries0, timeouts0 := client.Metrics.Retries.Load(), client.Metrics.Timeouts.Load()
	warm := runClosed(conns, closedLists, warmup)
	// Launch to preloaded and warm, as the issue defines it.
	r.set("setup_s", time.Since(t0).Seconds())

	vars0, err := dep.scrape()
	if err != nil {
		return nil, fmt.Errorf("scrape before closed phase: %w", err)
	}
	cpu0 := cpuTime(dep.pids)
	closed := runClosed(conns, closedLists, per)
	cpuClosed := cpuTime(dep.pids) - cpu0
	vars1, err := dep.scrape()
	if err != nil {
		return nil, fmt.Errorf("scrape after closed phase: %w", err)
	}

	cpu0, self0 := cpuTime(dep.pids), selfCPU()
	open := runOpen(conns, ops[:openOps], w.openRate)
	cpuOpen, selfOpen := cpuTime(dep.pids)-cpu0, selfCPU()-self0

	total := 0
	for _, p := range []*phase{warm, closed, open} {
		total += p.attempted
		r.Failed += p.failed
		if p.firstErr != nil && len(r.Notes) < 3 {
			r.Notes = append(r.Notes, "failed op: "+p.firstErr.Error())
		}
	}
	r.Attempted += total
	for _, c := range conns {
		if n, first := c.chk.wrongValues(); n > 0 {
			r.Wrong += n
			r.Notes = append(r.Notes, fmt.Sprintf("%d wrong replies, first: %s", n, first))
		}
	}

	r.set("tput_ops_s", float64(closed.completed())/per.Seconds())
	// What the open phase measured counts only if its generator was
	// healthy; set-up, the closed phase and the counters do not depend
	// on it.
	checkGenerator(r, open, selfOpen)
	if n := open.completed(); n > 0 && len(r.Invalid) == 0 {
		setLatencyMetrics(r, open)
		r.set("cpu_us_per_op", micros(cpuOpen)/float64(n))
	}
	if n := closed.completed(); n > 0 {
		r.set("ringd.cpu_us_per_op_closed", micros(cpuClosed)/float64(n))
		setCounterMetrics(r, vars0, vars1, n)
	}
	r.set("ringd.rss_peak_mb", rssPeakMB(dep.pids))
	r.set("client.retries_per_op", float64(client.Metrics.Retries.Load()-retries0)/float64(total))
	r.set("client.timeouts", float64(client.Metrics.Timeouts.Load()-timeouts0))

	if w.durable {
		// A clean stop first: recovery of a cleanly closed store is the
		// case that must never report damage.
		closeConns(conns)
		conns = nil
		dep.stop(true)
		ms, err := recoverMillis(filepath.Join(dep.dataDir, "node-0", "group-0"), o.out)
		if err != nil {
			return nil, err
		}
		r.set("replog.recover_ms", ms)
	}
	return r, nil
}

// setLatencyMetrics stores the open phase's exact percentiles per kind
// of operation, with the sample counts behind them.
func setLatencyMetrics(r *result, open *phase) {
	for k := opKind(0); k < numKinds; k++ {
		lat, name := open.lat[k], k.String()
		r.set(name+"_samples", float64(len(lat)))
		if len(lat) == 0 {
			continue
		}
		r.set(name+"_p50_us", micros(percentile(lat, 0.50)))
		r.set(name+"_p99_us", micros(percentile(lat, 0.99)))
		r.set(name+"_p999_us", micros(percentile(lat, 0.999)))
	}
}

// checkGenerator reports the generator's health in the open phase and
// marks the round invalid where the phase's numbers would measure the
// generator or the scheduler, not Ring.
func checkGenerator(r *result, open *phase, cpu time.Duration) {
	lagP99 := percentile(open.lag, 0.99)
	cpuFrac := cpu.Seconds() / open.elapsed.Seconds()
	r.set("loadgen.sched_lag_p99_us", micros(lagP99))
	r.set("loadgen.cpu_frac", cpuFrac)
	r.set("loadgen.backlog_end", open.backlogEnd)
	if lagP99 > maxLagP99 {
		r.Invalid = append(r.Invalid, fmt.Sprintf("open-phase dispatch lag p99 %v > %v", lagP99, maxLagP99))
	}
	if cpuFrac > maxLoadgenCPU {
		r.Invalid = append(r.Invalid, fmt.Sprintf("generator used %.0f%% of a core in the open phase", 100*cpuFrac))
	}
	if open.backlogEnd > 1.5*open.backlogMid+8 {
		r.Invalid = append(r.Invalid, fmt.Sprintf("backlog still growing at the end of the open phase (%.1f after %.1f)", open.backlogEnd, open.backlogMid))
	}
}

// setCounterMetrics turns two scrapes of every node's /debug/ringvars,
// taken around the closed phase, into per-operation ratios summed over
// the nodes.
func setCounterMetrics(r *result, before, after []status.Ringvars, ops int) {
	if ops == 0 {
		return
	}
	b, a := status.Aggregate(before), status.Aggregate(after)
	n := float64(ops)
	r.set("core.events_per_op", float64(a.Events-b.Events)/n)
	r.set("core.msgs_out_per_op", float64(a.MsgsOut-b.MsgsOut)/n)
	r.set("core.parity_xor_bytes_per_op", float64(a.Stats.BytesParityXor-b.Stats.BytesParityXor)/n)
	r.set("core.commit_rep_p50_us", float64(histDeltaQuantile(b.CommitRep, a.CommitRep, 0.5))/1e3)
	r.set("core.commit_srs_p50_us", float64(histDeltaQuantile(b.CommitSRS, a.CommitSRS, 0.5))/1e3)
	var high int64
	for _, rv := range after {
		if rv.Node.InboxHighWater > high {
			high = rv.Node.InboxHighWater
		}
	}
	r.set("core.inbox_high_water", float64(high))
	proc := func(vars []status.Ringvars, name string) float64 {
		var sum float64
		for _, rv := range vars {
			if v, ok := rv.Process[name].(float64); ok {
				sum += v
			}
		}
		return sum
	}
	delta := func(name string) float64 { return proc(after, name) - proc(before, name) }
	packets := delta("transport.packets_sent")
	r.set("transport.packets_per_op", packets/n)
	r.set("net_bytes_per_op", delta("transport.bytes_sent")/n)
	if packets > 0 {
		r.set("transport.batched_frac", delta("transport.batched_sent")/packets)
	}
}

// recoverMillis times replog.OpenDurable over a copy of a node's data
// directory. Recovery must succeed and must not report damage.
func recoverMillis(nodeDir, out string) (float64, error) {
	dir, err := scratchDir(out, "recover-")
	if err != nil {
		return 0, err
	}
	defer removeScratch(dir)
	ents, err := os.ReadDir(nodeDir)
	if err != nil {
		return 0, fmt.Errorf("replog.recover_ms: %w", err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(nodeDir, e.Name()))
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	d, err := replog.OpenDurable(wal.DirFS(dir), replog.DurableOptions{Policy: replog.FsyncAlways})
	took := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("replog.recover_ms: OpenDurable over node 0's data: %w", err)
	}
	damaged, entries := d.Damaged(), 0
	for _, sh := range d.Recovered() {
		entries += len(sh.Entries)
	}
	if err := d.Close(); err != nil {
		return 0, fmt.Errorf("replog.recover_ms: close: %w", err)
	}
	if damaged {
		return 0, fmt.Errorf("replog.recover_ms: recovery of a cleanly stopped node reports damage")
	}
	if entries == 0 {
		return 0, fmt.Errorf("replog.recover_ms: recovery found no entries in %s", nodeDir)
	}
	return float64(took) / float64(time.Millisecond), nil
}
