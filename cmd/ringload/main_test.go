package main

import (
	"flag"
	"strings"
	"testing"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/testutil"
	"ring/internal/transport"
	"ring/internal/workload"
)

// startTCPCluster boots a five-node rep3 + srs3.2 cluster over loopback
// TCP — one runner per node on its own fabric, as ringd deploys it —
// and returns the bound addresses in node-ID order, the form -nodes
// takes.
func startTCPCluster(t *testing.T) string {
	t.Helper()
	spec := core.ClusterSpec{
		Shards: 3, Redundant: 2,
		Memgests: []proto.Scheme{proto.Rep(3, 3), proto.SRS(3, 2, 3)},
		Opts: core.Options{
			BlockSize: 64 << 10,
			FailAfter: 2 * time.Second,
		},
	}
	cfg, err := core.BootConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	nodes := cfg.AllNodes()

	// Bind every node on port 0 first, then teach every fabric where
	// the others landed.
	fabrics := make([]*transport.TCPFabric, len(nodes))
	endpoints := make([]transport.Endpoint, len(nodes))
	addrs := make([]string, len(nodes))
	for i, id := range nodes {
		fabrics[i] = transport.NewTCPFabric()
		fabrics[i].Map(core.NodeAddr(id), "127.0.0.1:0")
		ep, err := fabrics[i].Register(core.NodeAddr(id))
		if err != nil {
			t.Fatal(err)
		}
		endpoints[i] = ep
		addrs[i] = transport.BoundAddr(ep)
	}
	runners := make([]*core.Runner, len(nodes))
	for i, id := range nodes {
		for j, other := range nodes {
			fabrics[i].Map(core.NodeAddr(other), addrs[j])
		}
		r, err := core.StartRunner(core.New(id, cfg.Clone(), spec.Opts), preRegistered{endpoints[i]}, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		runners[i] = r
		t.Cleanup(r.Stop)
	}
	serving := testutil.Eventually(10*time.Second, 10*time.Millisecond, func() bool {
		for _, r := range runners {
			ok := false
			r.Inspect(func(n *core.Node) { ok = n.Serving() })
			if !ok {
				return false
			}
		}
		return true
	})
	if !serving {
		t.Fatal("cluster never started serving")
	}
	return strings.Join(addrs, ",")
}

// preRegistered hands StartRunner an endpoint that is already bound.
type preRegistered struct{ ep transport.Endpoint }

func (p preRegistered) Register(string) (transport.Endpoint, error) { return p.ep, nil }

// parse runs args through ringload's own flag set, so a test starts
// from the defaults a user gets.
func parse(t *testing.T, args ...string) config {
	t.Helper()
	var c config
	fs := flag.NewFlagSet("ringload", flag.ContinueOnError)
	bindFlags(fs, &c)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunAgainstTCPCluster(t *testing.T) {
	nodes := startTCPCluster(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"closed rep3", []string{"-memgest", "1", "-ops", "400"}},
		{"closed srs3.2 trace", []string{"-memgest", "2", "-ops", "200", "-trace", "WebSearch1"}},
		{"open rep3", []string{"-mode", "open", "-memgest", "1", "-rate", "500", "-duration", "400ms"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := parse(t, append([]string{"-nodes", nodes, "-keys", "64"}, tc.args...)...)
			if err := c.validate(); err != nil {
				t.Fatal(err)
			}
			res, err := run(c)
			if err != nil {
				t.Fatalf("run: %v", err) // any failed operation is an error
			}
			if res.ops <= 0 || res.elapsed <= 0 {
				t.Fatalf("nothing measured: %+v", res)
			}
			if c.ops > 0 && res.ops != c.ops {
				t.Errorf("completed %d ops, -ops capped the run at %d", res.ops, c.ops)
			}
			if !(res.p50us > 0 && res.p50us <= res.p99us && res.p99us <= res.p999us) {
				t.Errorf("percentiles out of order: %+v", res)
			}
		})
	}
}

// A failed operation leaves no latency sample, so the failure message
// must count attempts, not samples.
func TestSummarizeCountsFailuresOverAttempts(t *testing.T) {
	lats := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	_, err := summarize(lats, time.Second, 3)
	if err == nil || !strings.Contains(err.Error(), "3 of 6 operations failed") {
		t.Fatalf("3 failures in 6 attempts reported as: %v", err)
	}
	if _, err := summarize(nil, time.Second, 0); err == nil {
		t.Fatal("an empty run is not a result")
	}
	res, err := summarize(lats, time.Second, 0)
	if err != nil || res.ops != 3 || res.elapsed != time.Second || res.p50us != 2000 || res.p999us != 3000 {
		t.Fatalf("summarize = %+v, %v", res, err)
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	const nodes = "127.0.0.1:7100"
	for _, tc := range []struct {
		args []string
		want string // "" = accepted
	}{
		{[]string{"-nodes", nodes}, ""},
		// -rate is the open loop's knob; a closed run ignores it.
		{[]string{"-nodes", nodes, "-rate", "0"}, ""},
		{nil, "-nodes is required"},
		{[]string{"-nodes", nodes, "-mode", "burst"}, "-mode"},
		{[]string{"-nodes", nodes, "-mode", "open", "-rate", "0"}, "-rate"},
		{[]string{"-nodes", nodes, "-mode", "open", "-rate", "-5"}, "-rate"},
		{[]string{"-nodes", nodes, "-mode", "open", "-rate", "NaN"}, "-rate"},
		{[]string{"-nodes", nodes, "-clients", "0"}, "-clients"},
		{[]string{"-nodes", nodes, "-depth", "-1"}, "-depth"},
		{[]string{"-nodes", nodes, "-keys", "0"}, "-keys"},
		{[]string{"-nodes", nodes, "-value", "-1"}, "-value"},
	} {
		err := parse(t, tc.args...).validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q rejected: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q: validate = %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
}

func TestParseMix(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want workload.Mix
	}{
		{"50:50", workload.Mix{Get: 50, Put: 50}},
		{"95:5", workload.Mix{Get: 95, Put: 5}},
		{"0:1", workload.Mix{Put: 1}},
	} {
		if got, err := parseMix(tc.in); err != nil || got != tc.want {
			t.Errorf("parseMix(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "50", "a:b", "-1:2", "0:0", "1:2:3"} {
		if got, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) = %+v, want an error", bad, got)
		}
	}
}
