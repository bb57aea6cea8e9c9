package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ring/internal/proto"
)

func TestUnionLenAndSelfTime(t *testing.T) {
	for _, c := range []struct {
		name   string
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{"none", nil, 0, 100, 0},
		{"disjoint", []interval{{10, 20}, {30, 45}}, 0, 100, 25},
		{"overlapping", []interval{{10, 30}, {20, 40}}, 0, 100, 30},
		{"nested", []interval{{10, 50}, {20, 30}}, 0, 100, 40},
		{"touching", []interval{{10, 20}, {20, 30}}, 0, 100, 20},
		{"unsorted", []interval{{60, 70}, {10, 20}, {15, 25}}, 0, 100, 25},
		{"clipped at both ends", []interval{{-10, 5}, {95, 200}}, 0, 100, 10},
		{"outside", []interval{{200, 300}}, 0, 100, 0},
		{"covering", []interval{{-5, 500}}, 0, 100, 100},
	} {
		if got := unionLen(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("%s: unionLen = %d, want %d", c.name, got, c.want)
		}
	}
	// Self time is the root minus what its children cover, and children
	// that trail past the root's end count only up to it.
	root := interval{100, 200}
	children := []interval{{110, 130}, {120, 150}, {190, 260}}
	if got := selfTime(root, children); got != 50 {
		t.Errorf("selfTime = %d, want 50", got)
	}
	if got := selfTime(root, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

// send builds a transport.send span for the turn tests.
func send(from, to string, typ proto.MsgType, start, end int64) span {
	return span{name: spanSend, from: from, to: to, typ: typ, start: start, end: end, msgs: 1}
}

func TestDeriveTurnsOfAReplicatedPut(t *testing.T) {
	// client -> coord; coord -> two replicas; acks back; reply and commits.
	sends := []span{
		send("client/1", "node/0", proto.TPut, 0, 10),
		send("node/0", "node/3", proto.TRepAppend, 30, 35),
		send("node/0", "node/4", proto.TRepAppend, 36, 40),
		send("node/3", "node/0", proto.TRepAck, 50, 55),
		send("node/4", "node/0", proto.TRepAck, 52, 58),
		send("node/0", "client/1", proto.TPutReply, 70, 75),
		send("node/0", "node/3", proto.TRepCommit, 76, 80),
		send("node/0", "node/4", proto.TRepCommit, 81, 85),
	}
	type key struct {
		node  string
		start int64
	}
	got := make(map[key]span)
	for _, turn := range deriveTurns(sends) {
		if turn.name != spanTurn {
			t.Errorf("derived span named %q", turn.name)
		}
		got[key{turn.from, turn.start}] = turn
	}
	want := []struct {
		node       string
		start, end int64
		role       string
		sends      int32
	}{
		{"node/0", 10, 40, "coord", 2},   // put in, two appends out
		{"node/3", 35, 55, "replica", 1}, // append in, ack out
		{"node/4", 40, 58, "replica", 1},
		// The first ack had produced nothing when the second arrived, so
		// the two share the turn that ends with the reply and the commits.
		{"node/0", 55, 85, "coord", 3},
	}
	if len(got) != len(want) {
		t.Errorf("derived %d turns, want %d: %+v", len(got), len(want), got)
	}
	for _, w := range want {
		turn, ok := got[key{w.node, w.start}]
		if !ok {
			t.Errorf("no turn at %s starting %d", w.node, w.start)
			continue
		}
		if turn.end != w.end || turnRole(turn.typ) != w.role || turn.msgs != w.sends {
			t.Errorf("turn at %s from %d: end %d role %q sends %d, want end %d role %q sends %d",
				w.node, w.start, turn.end, turnRole(turn.typ), turn.msgs, w.end, w.role, w.sends)
		}
	}
}

func TestRecorderDropsSpansOutsideOperations(t *testing.T) {
	rec := newRecorder()
	rec.add(span{name: spanSend})
	rec.op.Store(3)
	rec.add(span{name: spanSend})
	rec.op.Store(-1)
	rec.add(span{name: spanSync})
	if len(rec.spans) != 1 || rec.spans[0].op != 3 {
		t.Errorf("recorder kept %+v, want one span of op 3", rec.spans)
	}
}

// traceCounts are the metrics that must repeat exactly for one seed.
var traceCounts = []string{
	"trace.msgs_per_put", "trace.bytes_per_put",
	"trace.msgs_per_get", "trace.bytes_per_get",
	"trace.msgs_per_move", "trace.fsyncs_per_put",
}

// TestSmoke runs the in-process traced path of every workload, as
// `benchmark -smoke` does, twice on one seed: it keeps the benchmark
// compiling and running under `go test ./...`, and it shows that the
// counts a change may later be judged by repeat exactly.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		out := t.TempDir()
		n := smokeOps
		if w.tracedOps < n {
			n = w.tracedOps
		}
		first := newResult(w, 5)
		if err := tracedRun(w, 5, n, out, first); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		second := newResult(w, 5)
		if err := tracedRun(w, 5, n, out, second); err != nil {
			t.Fatalf("%s: second run: %v", w.name, err)
		}
		for _, name := range traceCounts {
			if first.Values[name] != second.Values[name] {
				t.Errorf("%s: %s = %v then %v on the same seed", w.name, name, first.Values[name], second.Values[name])
			}
		}

		// The bypass predictions of the interaction table.
		if got := first.Values["trace.fsyncs_per_put"]; (got > 0) != w.durable {
			t.Errorf("%s: trace.fsyncs_per_put = %v, durable = %v", w.name, got, w.durable)
		}
		if got := first.Values["trace.msgs_per_move"]; (got > 0) != (w.movePct > 0) {
			t.Errorf("%s: trace.msgs_per_move = %v with %d%% moves", w.name, got, w.movePct)
		}
		if first.Values["trace.msgs_per_put"] < 4 || first.Values["trace.msgs_per_get"] != 2 {
			t.Errorf("%s: %v messages per put, %v per get", w.name, first.Values["trace.msgs_per_put"], first.Values["trace.msgs_per_get"])
		}
		if got := first.Values["trace.bytes_per_put"]; got < float64(w.valueSize) {
			t.Errorf("%s: %v bytes per put of a %d-byte value", w.name, got, w.valueSize)
		}

		// The trace file holds a root per operation and children under it.
		b, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var tf traceFile
		if err := json.Unmarshal(b, &tf); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		roots, ids := 0, make(map[int]string)
		for _, s := range tf.Spans {
			ids[s.ID] = s.Name
		}
		for _, s := range tf.Spans {
			if s.Name == spanOp {
				roots++
				if s.Parent != 0 {
					t.Errorf("%s: root span %d has parent %d", w.name, s.ID, s.Parent)
				}
			} else if ids[s.Parent] != spanOp {
				t.Errorf("%s: span %d (%s) hangs under %q", w.name, s.ID, s.Name, ids[s.Parent])
			}
			if s.End < s.Start {
				t.Errorf("%s: span %d ends before it starts", w.name, s.ID)
			}
		}
		if roots != n || tf.Ops != n || tf.Workload != w.name {
			t.Errorf("%s: trace file has %d roots for %d ops (header: %d, %q)", w.name, roots, n, tf.Ops, tf.Workload)
		}
	}
}
