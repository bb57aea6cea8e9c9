package status

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"ring/internal/client"
	"ring/internal/core"
	"ring/internal/proto"
)

// TestMain switches payload poisoning on for every cluster these tests
// drive: a handler that keeps a view into a packet past its return
// reads 0xDB (see core.PoisonPayloads).
func TestMain(m *testing.M) {
	core.PoisonPayloads = true
	os.Exit(m.Run())
}

func TestStatusAndMetrics(t *testing.T) {
	cl, err := core.StartCluster(core.ClusterSpec{
		Shards: 3, Redundant: 2,
		Memgests: []proto.Scheme{proto.Rep(1, 3), proto.SRS(3, 2, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	srv, err := Serve(cl.Runs[0], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Generate some traffic so the counters move.
	c, err := client.Dial(cl.Fabric, []string{core.NodeAddr(0)}, client.Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 9; i++ {
		key := fmt.Sprintf("sk-%d", i)
		if _, err := c.PutIn(key, []byte("v"), 2); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}

	// /status: parseable JSON with the node's identity and schemes.
	resp, err := http.Get("http://" + srv.Addr() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.NodeID != 0 || !snap.IsLeader || !snap.Serving {
		t.Fatalf("snapshot: %+v", snap)
	}
	if len(snap.Memgests) != 2 || snap.Memgests[1].Label != "SRS32" {
		t.Fatalf("memgests: %+v", snap.Memgests)
	}
	if len(snap.Shards) != 1 || snap.Shards[0] != 0 {
		t.Fatalf("shards: %v", snap.Shards)
	}

	// /metrics: every numeric leaf of /debug/ringvars is a line, once.
	fetch := func(path string) []byte {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s, %v", path, resp.Status, err)
		}
		return body
	}
	var doc map[string]any
	if err := json.Unmarshal(fetch("/debug/ringvars"), &doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"ring_node_id": true}
	wantMetrics("ring", "", doc["node"], want)
	wantMetrics("ring", "", doc["process"], want)
	lines := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(string(fetch("/metrics")), "\n"), "\n") {
		name := line[:strings.LastIndexByte(line, ' ')]
		if lines[name] {
			t.Fatalf("/metrics has %s twice", name)
		}
		lines[name] = true
	}
	for name := range want {
		if !lines[name] {
			t.Fatalf("/metrics has no line for %s", name)
		}
	}
	for _, name := range []string{`ring_store_meta_bytes{memgest="2"}`, "ring_core_shards_degraded", "ring_commit_latency_srs_count", "ring_process_rss_peak_bytes"} {
		if !want[name] {
			t.Fatalf("/debug/ringvars has no leaf for %s", name)
		}
	}

	// /debug/pprof/: the Go profiles are mounted on the same mux.
	presp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if body, _ := io.ReadAll(presp.Body); presp.StatusCode != http.StatusOK || !strings.Contains(string(body), "heap profile") {
		t.Fatalf("heap profile: %s\n%.200s", presp.Status, body)
	}
}

// wantMetrics adds to want the /metrics name of every numeric leaf of
// v, a section of a decoded /debug/ringvars document: ring_ and the
// leaf's path, a map keyed by number a label, a histogram its _count,
// _sum and _bucket lines.
func wantMetrics(name, labels string, v any, want map[string]bool) {
	braced := ""
	if labels != "" {
		braced = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	switch x := v.(type) {
	case float64:
		want[name+braced] = true
	case map[string]any:
		if _, ok := x["sum_ns"]; ok {
			want[name+"_count"+braced], want[name+"_sum"+braced] = true, true
			want[name+"_bucket{"+labels+`le="+Inf"}`] = true
			buckets, _ := x["buckets"].([]any)
			for _, b := range buckets {
				want[fmt.Sprintf(`%s_bucket{%sle="%v"}`, name, labels, b.(map[string]any)["le_ns"])] = true
			}
			return
		}
		for k, e := range x {
			if m, ok := e.(map[string]any); ok && numericKeys(m) {
				for id, ev := range m {
					wantMetrics(name, fmt.Sprintf(`%s%s="%s",`, labels, strings.TrimSuffix(k, "s"), id), ev, want)
				}
				continue
			}
			wantMetrics(name+"_"+strings.NewReplacer(".", "_").Replace(k), labels, e, want)
		}
	}
}

func numericKeys(m map[string]any) bool {
	for k := range m {
		if _, err := strconv.Atoi(k); err != nil {
			return false
		}
	}
	return len(m) > 0
}
