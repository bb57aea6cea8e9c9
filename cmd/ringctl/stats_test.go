package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/status"
)

// TestMain switches payload poisoning on for every cluster these tests
// drive: a handler that keeps a view into a packet past its return
// reads 0xDB (see core.PoisonPayloads).
func TestMain(m *testing.M) {
	core.PoisonPayloads = true
	os.Exit(m.Run())
}

func TestRunStats(t *testing.T) {
	cl, err := core.StartCluster(core.ClusterSpec{
		Shards: 1, Memgests: []proto.Scheme{proto.Rep(1, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	srv, err := status.Serve(cl.Runs[0], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var buf bytes.Buffer
	if err := runStats(&buf, " "+srv.Addr()+" ,", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nodes=1") {
		t.Fatalf("stats output:\n%s", buf.String())
	}

	buf.Reset()
	if err := runStats(&buf, srv.Addr(), []string{"-watch", "-interval", "1ms", "-rounds", "2"}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "--- "); got != 2 {
		t.Fatalf("watch rendered %d rounds, want 2:\n%s", got, buf.String())
	}

	if err := runStats(&buf, " , ", nil); err == nil {
		t.Fatal("empty address list accepted")
	}
	if err := runStats(&buf, srv.Addr(), []string{"-bogusflag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
