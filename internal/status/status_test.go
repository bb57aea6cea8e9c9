package status

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
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

	// /metrics: text format with moving counters. Node 0 coordinates
	// one of three shards, so at least some traffic landed here.
	mresp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	text := string(body)
	for _, want := range []string{"ring_node_id 0", "ring_is_leader 1", "ring_serving 1", "ring_memgests 2", "ring_puts_total", "ring_core_writes_awaiting_quorum 0", "ring_core_shards_recovering 0", "ring_core_shards_degraded 0", "ring_core_recovery_reasks 0", "ring_bytes_parity_xor_total",
		`ring_store_value_bytes_used{memgest="1"} 0`, `ring_store_block_bytes_used{memgest="2"}`, `ring_store_meta_bytes{memgest="1"}`, "ring_meta_entries", "ring_process_arena_bytes_backed", "ring_process_meta_bytes_backed", "ring_process_rss_file_bytes",
		`ring_store_value_slots_relocated_total{memgest="1"} 0`, `ring_store_value_chunks_released_total{memgest="1"} 0`, "ring_process_arena_bytes_pooled "} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
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
