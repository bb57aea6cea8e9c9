// Command ringload is the YCSB-style load generator for live Ring
// clusters over TCP: it drives a deployment started by cmd/ringd with
// the paper's workloads and prints ops/sec and exact p50/p99/p999
// latency percentiles. It measures and prints; comparing a number
// against another run is `go run ./benchmark`'s job.
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
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ring/internal/client"
	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/traces"
	"ring/internal/transport"
	"ring/internal/workload"
)

type config struct {
	nodes    string
	groups   int
	memgest  int
	mode     string
	clients  int
	depth    int
	rate     float64
	duration time.Duration
	ops      int
	keys     int
	value    int
	mix      string
	dist     string
	theta    float64
	trace    string
	seed     int64
	timeout  time.Duration
	retries  int
	preload  bool
	scheme   string
}

// bindFlags declares ringload's flags on fs; parsing fills c.
func bindFlags(fs *flag.FlagSet, c *config) {
	fs.StringVar(&c.nodes, "nodes", "", "comma-separated TCP addresses of all cluster nodes, in node-ID order (ringd -launch prints this as RING_NODES)")
	fs.IntVar(&c.groups, "groups", 1, "memgest groups of the deployment (must match ringd -groups)")
	fs.IntVar(&c.memgest, "memgest", 0, "memgest ID to drive (0 = cluster default)")
	fs.StringVar(&c.mode, "mode", "closed", "offered-load model: closed or open")
	fs.IntVar(&c.clients, "clients", 4, "closed-loop client count")
	fs.IntVar(&c.depth, "depth", 4, "concurrent streams per client (total concurrency = clients*depth)")
	fs.Float64Var(&c.rate, "rate", 2000, "open-loop offered load in ops/sec")
	fs.DurationVar(&c.duration, "duration", 5*time.Second, "measurement duration")
	fs.IntVar(&c.ops, "ops", 0, "operation cap (0 = run for -duration)")
	fs.IntVar(&c.keys, "keys", 1024, "key-space size")
	fs.IntVar(&c.value, "value", 1024, "value size in bytes")
	fs.StringVar(&c.mix, "mix", "50:50", "get:put ratio, e.g. 95:5")
	fs.StringVar(&c.dist, "dist", "zipfian", "key popularity: zipfian or uniform")
	fs.Float64Var(&c.theta, "theta", workload.DefaultTheta, "zipfian theta")
	fs.StringVar(&c.trace, "trace", "", "replay a named trace's statistics (Financial1, Financial2, WebSearch1..3) instead of -mix/-value")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed")
	fs.DurationVar(&c.timeout, "timeout", 3*time.Second, "per-attempt request timeout")
	fs.IntVar(&c.retries, "retries", 8, "request retry budget")
	fs.BoolVar(&c.preload, "preload", true, "write the whole key space once before measuring")
	fs.StringVar(&c.scheme, "scheme", "", "scheme label for reports (default memgest<id>)")
}

func main() {
	var c config
	bindFlags(flag.CommandLine, &c)
	flag.Parse()

	if err := c.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "ringload: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ringload: %v\n", err)
		os.Exit(1)
	}
	label := c.scheme
	if label == "" {
		label = fmt.Sprintf("memgest%d", c.memgest)
	}
	fmt.Printf("== %s/%s ==\n%d ops in %s: %.0f ops/sec, p50 %.0fus p99 %.0fus p99.9 %.0fus\n",
		label, c.mode, res.ops, res.elapsed.Round(time.Millisecond), float64(res.ops)/res.elapsed.Seconds(), res.p50us, res.p99us, res.p999us)
}

// validate rejects flag values no run can use, before anything is
// dialed: a usage error, not a failed measurement.
func (c config) validate() error {
	switch {
	case c.nodes == "":
		return fmt.Errorf("-nodes is required")
	case c.mode != "closed" && c.mode != "open":
		return fmt.Errorf("unknown -mode %q (want closed or open)", c.mode)
	case c.mode == "open" && !(c.rate > 0): // also rejects NaN
		return fmt.Errorf("-rate must be positive, got %v", c.rate)
	case c.clients <= 0:
		return fmt.Errorf("-clients must be positive, got %d", c.clients)
	case c.depth <= 0:
		return fmt.Errorf("-depth must be positive, got %d", c.depth)
	case c.keys <= 0:
		return fmt.Errorf("-keys must be positive, got %d", c.keys)
	case c.value <= 0:
		return fmt.Errorf("-value must be positive, got %d", c.value)
	}
	return nil
}

// result is what one load run measured.
type result struct {
	ops     int // operations completed; a run with any failure is an error
	elapsed time.Duration
	p50us   float64
	p99us   float64
	p999us  float64
}

// run dials the cluster c.nodes names and drives one load run against
// c.memgest.
func run(c config) (result, error) {
	clients, err := dialGroups(c)
	if err != nil {
		return result{}, err
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	return measure(c, clients)
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
			ga, err := transport.OffsetPort(strings.TrimSpace(a), g)
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

// measure drives one load run against the dialed cluster.
func measure(c config, clients []*client.Client) (result, error) {
	mg := proto.MemgestID(c.memgest)
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
		return result{}, err
	}
	if c.preload {
		if err := preloadKeys(c, clients, mg, ops); err != nil {
			return result{}, err
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

	runLoad := runClosed
	if c.mode == "open" {
		runLoad = runOpen
	}
	lats, elapsed, errs := runLoad(c, ops, doOp)
	return summarize(lats, elapsed, errs)
}

// summarize turns one run's successful latencies and failure count
// into its result. Any failed operation fails the run: lats holds
// successes only, so the attempts are its length plus errs.
func summarize(lats []time.Duration, elapsed time.Duration, errs int64) (result, error) {
	if errs > 0 {
		return result{}, fmt.Errorf("%d of %d operations failed", errs, int64(len(lats))+errs)
	}
	if len(lats) == 0 {
		return result{}, fmt.Errorf("no operations completed")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return result{
		ops:     len(lats),
		elapsed: elapsed,
		p50us:   quantileUS(lats, 0.50),
		p99us:   quantileUS(lats, 0.99),
		p999us:  quantileUS(lats, 0.999),
	}, nil
}

// preloadKeys writes every key the plan touches once, so gets during
// the measured window hit committed data: 16 callers per group's client
// keep 16 puts in flight on it.
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
	var wg sync.WaitGroup
	failed := make(chan error, 1) // the first failure
	keys := make([]chan string, len(clients))
	for g, cl := range clients {
		keys[g] = make(chan string)
		for range 16 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range keys[g] {
					if _, err := cl.PutIn(k, seen[k], mg); err != nil {
						select {
						case failed <- err:
						default:
						}
					}
				}
			}()
		}
	}
	for k := range seen {
		keys[core.GroupOf(k, len(clients))] <- k
	}
	for _, ch := range keys {
		close(ch)
	}
	wg.Wait()
	close(failed)
	if err := <-failed; err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return nil
}

// runClosed runs clients*depth synchronous streams until the duration
// (or op cap) is reached. Each stream walks its own slice of the plan
// so two streams never contend on a key ordering artifact.
func runClosed(c config, ops []op, doOp func(op) error) ([]time.Duration, time.Duration, int64) {
	workers := c.clients * c.depth
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
