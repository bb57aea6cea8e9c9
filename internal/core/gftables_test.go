package core

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"ring/internal/gf"
	"ring/internal/proto"
)

// TestWordTablesBuiltByTheNodeThatMultiplies boots each node of an idle
// rep3,srs3.2 cluster in a process of its own — the table cache is per
// process, as a ringd's is — and reads gf.word_tables_built: the parity
// nodes, which only XOR, hold none, and a coordinator holds at most the
// M coefficients of its own stripe position (and at least one, or
// nothing would be warmed before the first put).
func TestWordTablesBuiltByTheNodeThatMultiplies(t *testing.T) {
	const env = "RING_TEST_GF_NODE"
	cfg, err := BootConfig(ClusterSpec{Shards: 3, Redundant: 2, Memgests: []proto.Scheme{proto.Rep(3, 3), proto.SRS(3, 2, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	if v := os.Getenv(env); v != "" {
		id, _ := strconv.Atoi(v)
		New(proto.NodeID(id), cfg, Options{})
		fmt.Printf("word_tables_built=%d\n", gf.WordTablesBuilt.Load())
		return
	}
	for _, id := range cfg.AllNodes() {
		cmd := exec.Command(os.Args[0], "-test.run=^TestWordTablesBuiltByTheNodeThatMultiplies$")
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", env, id))
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("node %d: %v\n%s", id, err, out)
		}
		_, rest, ok := strings.Cut(string(out), "word_tables_built=")
		if !ok {
			t.Fatalf("node %d printed no count:\n%s", id, out)
		}
		built, err := strconv.Atoi(strings.Fields(rest)[0])
		if err != nil {
			t.Fatal(err)
		}
		coordinator := int(id) < len(cfg.Coords)
		if !coordinator && built != 0 {
			t.Errorf("parity node %d built %d word tables, want 0", id, built)
		}
		if coordinator && (built < 1 || built > 2) {
			t.Errorf("coordinator %d built %d word tables, want 1..M=2", id, built)
		}
	}
}
