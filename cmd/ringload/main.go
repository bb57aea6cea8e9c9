// Command ringload is the YCSB-style load generator for live Ring
// clusters over TCP: it drives a deployment started by cmd/ringd (or
// scripts/cluster.sh) with the paper's workloads and reports ops/sec
// and exact p50/p99/p999 latency percentiles.
//
// Two offered-load models:
//
//   - closed loop (-mode closed): -clients × -depth synchronous
//     streams, each issuing the next operation as soon as the previous
//     completes — the saturation-throughput experiments (Table 1).
//   - open loop (-mode open): operations arrive on a fixed schedule at
//     -rate ops/sec regardless of completions, and latency is measured
//     from the scheduled arrival, so queueing delay under overload is
//     visible — the latency-under-load experiments (Figures 9, 11).
//
// Keys follow a Zipfian (-dist zipfian, YCSB theta 0.99) or uniform
// popularity over -keys items with a -mix get:put ratio, or replay the
// statistics of a named storage trace (-trace Financial1, scaled to
// the -keys footprint). Deployments sharded with ringd -groups G are
// driven group-aware: every key routes to its group's fabric with the
// same core.GroupOf mapping the servers use.
//
// With -bench-out the run is appended to the machine-checked BENCH
// trajectory: -suite measures the GF kernels plus one closed-loop run
// against the replicated and erasure-coded memgests, writes
// BENCH_<issue>.json, and — when a previous BENCH_*.json exists in
// -prev-dir — fails (exit 1) on any >-tolerance regression.
//
// -convert adds the elasticity row: the same closed-loop workload
// measured while a background bulk move continuously re-encodes the
// whole key space back and forth between the replicated and the
// erasure-coded memgest — the cost of live scheme changes under load,
// reported as scheme "<rep-scheme>+bulkconv".
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ring/internal/benchjson"
	"ring/internal/client"
	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/traces"
	"ring/internal/transport"
	"ring/internal/workload"
)

type config struct {
	nodes     string
	groups    int
	memgest   int
	mode      string
	clients   int
	depth     int
	rate      float64
	duration  time.Duration
	ops       int
	keys      int
	value     int
	mix       string
	dist      string
	theta     float64
	trace     string
	seed      int64
	timeout   time.Duration
	retries   int
	preload   bool
	scheme    string
	suite     bool
	convert   bool
	repMG     int
	srsMG     int
	repScheme string
	srsScheme string
	benchOut  string
	merge     bool
	kernels   bool
	issue     int
	prevDir   string
	tolerance float64
	kernelB   int
}

func main() {
	var c config
	flag.StringVar(&c.nodes, "nodes", "", "comma-separated TCP addresses of all cluster nodes, in node-ID order (ringd -launch prints this as RING_NODES)")
	flag.IntVar(&c.groups, "groups", 1, "memgest groups of the deployment (must match ringd -groups)")
	flag.IntVar(&c.memgest, "memgest", 0, "memgest ID to drive (0 = cluster default)")
	flag.StringVar(&c.mode, "mode", "closed", "offered-load model: closed or open")
	flag.IntVar(&c.clients, "clients", 4, "closed-loop client count")
	flag.IntVar(&c.depth, "depth", 4, "concurrent streams per client (total concurrency = clients*depth)")
	flag.Float64Var(&c.rate, "rate", 2000, "open-loop offered load in ops/sec")
	flag.DurationVar(&c.duration, "duration", 5*time.Second, "measurement duration")
	flag.IntVar(&c.ops, "ops", 0, "operation cap (0 = run for -duration)")
	flag.IntVar(&c.keys, "keys", 1024, "key-space size")
	flag.IntVar(&c.value, "value", 1024, "value size in bytes")
	flag.StringVar(&c.mix, "mix", "50:50", "get:put ratio, e.g. 95:5")
	flag.StringVar(&c.dist, "dist", "zipfian", "key popularity: zipfian or uniform")
	flag.Float64Var(&c.theta, "theta", workload.DefaultTheta, "zipfian theta")
	flag.StringVar(&c.trace, "trace", "", "replay a named trace's statistics (Financial1, Financial2, WebSearch1..3) instead of -mix/-value")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed")
	flag.DurationVar(&c.timeout, "timeout", 3*time.Second, "per-attempt request timeout")
	flag.IntVar(&c.retries, "retries", 8, "request retry budget")
	flag.BoolVar(&c.preload, "preload", true, "write the whole key space once before measuring")
	flag.StringVar(&c.scheme, "scheme", "", "scheme label for reports (default memgest<id>)")
	flag.BoolVar(&c.suite, "suite", false, "BENCH suite: measure GF kernels plus closed-loop runs on the rep and srs memgests")
	flag.BoolVar(&c.convert, "convert", false, "add the move-under-load row: closed-loop ops on -rep-memgest while a background bulk move churns the key space between the rep and srs memgests")
	flag.IntVar(&c.repMG, "rep-memgest", 1, "suite: replicated memgest ID")
	flag.IntVar(&c.srsMG, "srs-memgest", 2, "suite: erasure-coded memgest ID")
	flag.StringVar(&c.repScheme, "rep-scheme", "rep3", "suite: scheme label of -rep-memgest")
	flag.StringVar(&c.srsScheme, "srs-scheme", "srs3.2", "suite: scheme label of -srs-memgest")
	flag.StringVar(&c.benchOut, "bench-out", "", "write a benchjson result to this path (e.g. BENCH_7.json)")
	flag.BoolVar(&c.merge, "bench-merge", false, "append this run's cluster rows to an existing -bench-out file (multi-boot trajectories, e.g. volatile + durable passes)")
	flag.BoolVar(&c.kernels, "kernels", true, "suite: measure the GF kernels (disable on merge passes that only add cluster rows)")
	flag.IntVar(&c.issue, "issue", 7, "issue number recorded in -bench-out")
	flag.StringVar(&c.prevDir, "prev-dir", "", "directory holding committed BENCH_*.json to gate against (empty = no gate)")
	flag.Float64Var(&c.tolerance, "tolerance", 0.10, "fractional regression tolerance for the gate")
	flag.IntVar(&c.kernelB, "kernel-bytes", 4096, "buffer size for the suite's GF kernel measurements")
	flag.Parse()

	if err := run(c); err != nil {
		log.Fatalf("ringload: %v", err)
	}
}

func run(c config) error {
	result := benchjson.Result{Schema: benchjson.Schema, Issue: c.issue, Host: benchjson.CurrentHost()}

	if c.suite && c.kernels {
		fmt.Printf("== GF kernels (%d B buffers) ==\n", c.kernelB)
		result.Kernels = benchjson.MeasureGFKernels(c.kernelB)
		for _, k := range result.Kernels {
			fmt.Printf("%-12s %8.2f GB/s  (byte-wise %6.2f GB/s, %.2fx)\n", k.Name, k.GBps, k.BaseGBps, k.Speedup)
		}
		fmt.Printf("geomean speedup: %.2fx\n", benchjson.GeomeanSpeedup(result.Kernels))
	}

	if c.nodes != "" {
		clients, err := dialGroups(c)
		if err != nil {
			return err
		}
		defer func() {
			for _, cl := range clients {
				cl.Close()
			}
		}()
		runs := []struct {
			mg     int
			scheme string
		}{{c.memgest, c.scheme}}
		if c.suite {
			runs = []struct {
				mg     int
				scheme string
			}{{c.repMG, c.repScheme}, {c.srsMG, c.srsScheme}}
		}
		for _, r := range runs {
			row, err := measure(c, clients, proto.MemgestID(r.mg), r.scheme)
			if err != nil {
				return err
			}
			result.Cluster = append(result.Cluster, row)
			fmt.Printf("== %s/%s ==\n%d ops in %s: %.0f ops/sec, p50 %.0fus p99 %.0fus p99.9 %.0fus\n",
				row.Scheme, row.Mode, row.Ops, c.duration, row.OpsPerSec, row.P50us, row.P99us, row.P999us)
		}
		if c.convert {
			row, churned, err := measureConvert(c, clients)
			if err != nil {
				return err
			}
			result.Cluster = append(result.Cluster, row)
			fmt.Printf("== %s/%s ==\n%d ops in %s: %.0f ops/sec, p50 %.0fus p99 %.0fus p99.9 %.0fus (%d keys bulk-moved behind the workload)\n",
				row.Scheme, row.Mode, row.Ops, c.duration, row.OpsPerSec, row.P50us, row.P99us, row.P999us, churned)
		}
	} else if !c.suite {
		return fmt.Errorf("nothing to do: need -nodes and/or -suite")
	}

	if c.benchOut != "" {
		if c.merge {
			if old, err := benchjson.Read(c.benchOut); err == nil {
				// Earlier passes' rows come first; kernels survive from the
				// pass that measured them.
				if len(result.Kernels) == 0 {
					result.Kernels = old.Kernels
				}
				result.Cluster = append(old.Cluster, result.Cluster...)
			} else if !os.IsNotExist(err) {
				return err
			}
		}
		if err := benchjson.Write(c.benchOut, result); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", c.benchOut)
	}
	if c.prevDir != "" {
		prev, path, ok, err := benchjson.FindPrevious(c.prevDir, c.issue)
		if err != nil {
			return err
		}
		if !ok {
			fmt.Printf("bench gate: no previous BENCH_*.json in %s — seeding the trajectory\n", c.prevDir)
			return nil
		}
		if regs := benchjson.Compare(prev, result, c.tolerance); len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "bench gate REGRESSION vs %s: %s\n", path, r)
			}
			return fmt.Errorf("%d regression(s) beyond %.0f%% vs %s", len(regs), c.tolerance*100, path)
		}
		fmt.Printf("bench gate: no regressions beyond %.0f%% vs %s\n", c.tolerance*100, path)
	}
	return nil
}

// dialGroups connects one client per memgest group. Group g's fabric
// maps every node address with its port shifted by g, mirroring ringd.
// Dialing retries for a few seconds so the generator can start
// alongside a cluster that is still booting.
func dialGroups(c config) ([]*client.Client, error) {
	addrs := strings.Split(c.nodes, ",")
	if c.groups < 1 {
		c.groups = 1
	}
	bootstrap := make([]string, len(addrs))
	for i := range addrs {
		bootstrap[i] = core.NodeAddr(proto.NodeID(i))
	}
	clients := make([]*client.Client, c.groups)
	for g := 0; g < c.groups; g++ {
		fabric := transport.NewTCPFabric()
		for i, a := range addrs {
			ga, err := offsetPort(strings.TrimSpace(a), g)
			if err != nil {
				return nil, err
			}
			fabric.Map(core.NodeAddr(proto.NodeID(i)), ga)
		}
		var cl *client.Client
		var err error
		deadline := time.Now().Add(10 * time.Second)
		for {
			cl, err = client.Dial(fabric, bootstrap, client.Options{Timeout: c.timeout, Retries: c.retries})
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(200 * time.Millisecond)
		}
		if err != nil {
			return nil, fmt.Errorf("dial group %d: %w", g, err)
		}
		clients[g] = cl
	}
	return clients, nil
}

// op is one scheduled request of the run.
type op struct {
	put   bool
	key   string
	value []byte
	at    time.Duration // open loop: offset of the scheduled arrival
}

// plan builds the request stream and the value buffers for one run.
func plan(c config, n int) ([]op, error) {
	mix, err := parseMix(c.mix)
	if err != nil {
		return nil, err
	}
	if c.trace != "" {
		tr, ok := namedTrace(c.trace)
		if !ok {
			return nil, fmt.Errorf("unknown trace %q", c.trace)
		}
		// Scale the trace's footprint to the requested key space; the
		// write fraction and size distribution survive the scaling.
		tr.FootprintBytes = int64(c.keys) * int64(tr.AvgReqBytes)
		ops := make([]op, n)
		for i, t := range traces.Synthesize(tr, n, c.seed) {
			ops[i] = op{put: t.Write, key: t.Key}
			if t.Write {
				ops[i].value = make([]byte, t.Size)
			}
		}
		return ops, nil
	}
	var keys workload.KeyChooser
	switch c.dist {
	case "zipfian":
		keys = workload.NewZipfian(c.keys, c.theta, c.seed)
	case "uniform":
		keys = workload.NewUniform(c.keys, c.seed)
	default:
		return nil, fmt.Errorf("unknown distribution %q", c.dist)
	}
	gen := workload.NewGenerator(keys, mix, c.seed)
	gen.SetValueSize(c.value)
	ops := make([]op, n)
	for i := range ops {
		w := gen.Next()
		ops[i] = op{put: w.Kind == workload.OpPut, key: w.Key, value: w.Value}
	}
	return ops, nil
}

// measure drives one load run against the cluster and reports it as a
// trajectory row.
func measure(c config, clients []*client.Client, mg proto.MemgestID, scheme string) (benchjson.Cluster, error) {
	if scheme == "" {
		scheme = fmt.Sprintf("memgest%d", mg)
	}
	n := c.ops
	if n <= 0 {
		if c.mode == "open" {
			n = int(c.rate * c.duration.Seconds())
		} else {
			// Closed loop stops on the duration; the plan just has to be
			// long enough that no worker wraps visibly often.
			n = 1 << 16
		}
	}
	ops, err := plan(c, n)
	if err != nil {
		return benchjson.Cluster{}, err
	}
	if c.preload {
		if err := preloadKeys(c, clients, mg, ops); err != nil {
			return benchjson.Cluster{}, err
		}
	}

	doOp := func(o op) error {
		cl := clients[core.GroupOf(o.key, len(clients))]
		if o.put {
			_, err := cl.PutIn(o.key, o.value, mg)
			return err
		}
		_, _, err := cl.Get(o.key)
		if err == client.ErrNotFound {
			return nil // a miss is a completed operation
		}
		return err
	}

	var lats []time.Duration
	var elapsed time.Duration
	var errs int64
	switch c.mode {
	case "closed":
		lats, elapsed, errs = runClosed(c, ops, doOp)
	case "open":
		lats, elapsed, errs = runOpen(c, ops, doOp)
	default:
		return benchjson.Cluster{}, fmt.Errorf("unknown mode %q", c.mode)
	}
	if errs > 0 {
		return benchjson.Cluster{}, fmt.Errorf("%s/%s: %d of %d operations failed", scheme, c.mode, errs, len(lats))
	}
	if len(lats) == 0 {
		return benchjson.Cluster{}, fmt.Errorf("%s/%s: no operations completed", scheme, c.mode)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	mixLabel := c.mix
	if c.trace != "" {
		mixLabel = "trace:" + c.trace
	}
	return benchjson.Cluster{
		Scheme:     scheme,
		Mode:       c.mode,
		Procs:      len(strings.Split(c.nodes, ",")),
		Groups:     len(clients),
		Clients:    c.clients * c.depth,
		ValueBytes: c.value,
		Mix:        mixLabel,
		Ops:        len(lats),
		OpsPerSec:  float64(len(lats)) / elapsed.Seconds(),
		P50us:      quantileUS(lats, 0.50),
		P99us:      quantileUS(lats, 0.99),
		P999us:     quantileUS(lats, 0.999),
	}, nil
}

// measureConvert is the elasticity row: the closed-loop workload on
// the replicated memgest measured while background goroutines
// continuously bulk-move (client.MovePrefix) the whole key space back
// and forth between the rep and srs memgests. The row keys the
// trajectory as "<rep-scheme>+bulkconv", so the gate compares
// move-under-load throughput run over run. Returns the row and the
// total keys the background churn moved.
func measureConvert(c config, clients []*client.Client) (benchjson.Cluster, uint64, error) {
	var (
		stop    atomic.Bool
		churned atomic.Uint64
		wg      sync.WaitGroup
	)
	dsts := [2]proto.MemgestID{proto.MemgestID(c.srsMG), proto.MemgestID(c.repMG)}
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				n, err := cl.MovePrefix("", 0, dsts[i%2])
				churned.Add(uint64(n))
				if err != nil {
					// The churn races the foreground puts (a key can change
					// memgest between the scan and its move); transient
					// failures are part of the contention being measured,
					// not a failure of the run.
					time.Sleep(20 * time.Millisecond)
				}
			}
		}(cl)
	}
	row, err := measure(c, clients, proto.MemgestID(c.repMG), c.repScheme+"+bulkconv")
	stop.Store(true)
	wg.Wait()
	return row, churned.Load(), err
}

// preloadKeys writes every key the plan touches once, so gets during
// the measured window hit committed data.
func preloadKeys(c config, clients []*client.Client, mg proto.MemgestID, ops []op) error {
	seen := make(map[string][]byte, c.keys)
	for _, o := range ops {
		if _, ok := seen[o.key]; !ok {
			v := o.value
			if v == nil {
				v = make([]byte, c.value)
			}
			seen[o.key] = v
		}
	}
	pipes := make([]*client.Pipeline, len(clients))
	for g, cl := range clients {
		pipes[g] = cl.NewPipeline(16)
	}
	for k, v := range seen {
		pipes[core.GroupOf(k, len(clients))].PutIn(k, v, mg)
	}
	for _, p := range pipes {
		if err := p.Flush(); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// runClosed runs clients*depth synchronous streams until the duration
// (or op cap) is reached. Each stream walks its own slice of the plan
// so two streams never contend on a key ordering artifact.
func runClosed(c config, ops []op, doOp func(op) error) ([]time.Duration, time.Duration, int64) {
	workers := c.clients * c.depth
	if workers < 1 {
		workers = 1
	}
	var (
		next    atomic.Int64
		errs    atomic.Int64
		mu      sync.Mutex
		lats    []time.Duration
		wg      sync.WaitGroup
		stopped atomic.Bool
	)
	capN := int64(0)
	if c.ops > 0 {
		capN = int64(c.ops)
	}
	start := time.Now()
	time.AfterFunc(c.duration, func() { stopped.Store(true) })
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]time.Duration, 0, 4096)
			for !stopped.Load() {
				i := next.Add(1) - 1
				if capN > 0 && i >= capN {
					break
				}
				o := ops[i%int64(len(ops))]
				t0 := time.Now()
				if err := doOp(o); err != nil {
					errs.Add(1)
					continue
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lats, time.Since(start), errs.Load()
}

// runOpen offers the plan on its fixed schedule; latency runs from the
// scheduled arrival, so a saturated cluster shows its queueing delay
// instead of silently shedding load.
func runOpen(c config, ops []op, doOp func(op) error) ([]time.Duration, time.Duration, int64) {
	gap := time.Duration(float64(time.Second) / c.rate)
	var (
		errs atomic.Int64
		mu   sync.Mutex
		lats []time.Duration
		wg   sync.WaitGroup
	)
	// The in-flight bound only protects the generator machine; past it
	// the run is closed in disguise, so keep it far above any sane
	// operating point.
	sem := make(chan struct{}, 4096)
	start := time.Now()
	for i := range ops {
		at := time.Duration(i) * gap
		ops[i].at = at
		if d := at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(o op) {
			defer wg.Done()
			err := doOp(o)
			lat := time.Since(start) - o.at
			<-sem
			if err != nil {
				errs.Add(1)
				return
			}
			mu.Lock()
			lats = append(lats, lat)
			mu.Unlock()
		}(ops[i])
	}
	wg.Wait()
	return lats, time.Since(start), errs.Load()
}

// quantileUS returns the exact q-quantile of sorted latencies in
// microseconds.
func quantileUS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Microsecond)
}

func parseMix(s string) (workload.Mix, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return workload.Mix{}, fmt.Errorf("bad mix %q (want GET:PUT)", s)
	}
	g, err1 := strconv.Atoi(parts[0])
	p, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || g < 0 || p < 0 || g+p == 0 {
		return workload.Mix{}, fmt.Errorf("bad mix %q", s)
	}
	return workload.Mix{Get: g, Put: p}, nil
}

func namedTrace(name string) (traces.Stats, bool) {
	for _, tr := range []traces.Stats{
		traces.Financial1, traces.Financial2,
		traces.WebSearch1, traces.WebSearch2, traces.WebSearch3,
	} {
		if strings.EqualFold(tr.Name, name) {
			return tr, true
		}
	}
	return traces.Stats{}, false
}

// offsetPort returns addr with its port shifted by delta (group g of a
// node listens on the node's port + g; see cmd/ringd).
func offsetPort(addr string, delta int) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("bad address %q: %v", addr, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return "", fmt.Errorf("bad port in %q: %v", addr, err)
	}
	return net.JoinHostPort(host, strconv.Itoa(p+delta)), nil
}
