package status

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"ring/internal/client"
	"ring/internal/core"
	"ring/internal/metrics"
	"ring/internal/proto"
	"ring/internal/replog"
)

// encodeJSON is what the JSON routes rendered with before marshalJSON:
// the standard encoder, indented by two spaces.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// sameJSON fails t unless marshalJSON renders v as the encoder does, or
// fails with the encoder's error.
func sameJSON(t testing.TB, name string, v any) {
	t.Helper()
	want, wantErr := encodeJSON(v)
	got, err := marshalJSON(v)
	switch {
	case wantErr != nil || err != nil:
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, the encoder's %v", name, err, wantErr)
		}
	case !bytes.Equal(got, want):
		t.Fatalf("%s: marshalJSON wrote\n%s\nthe encoder\n%s", name, got, want)
	}
}

// liveCluster boots a cluster, puts and gets through it so that the
// counters, histograms and trace rings hold something, and returns it.
func liveCluster(t *testing.T, spec core.ClusterSpec) *core.Cluster {
	t.Helper()
	cl, err := core.StartCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c, err := client.Dial(cl.Fabric, []string{core.NodeAddr(0)}, client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("<k&%d>\u2028", i)
		if _, err := c.PutIn(key, []byte("value"), proto.MemgestID(1+i%2)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

// TestJSONWriterMatchesEncodingJSON renders every document the JSON
// routes serve, from live nodes, with marshalJSON and with the encoder,
// and wants the same bytes.
func TestJSONWriterMatchesEncodingJSON(t *testing.T) {
	schemes := []proto.Scheme{proto.Rep(3, 3), proto.SRS(3, 2, 3)}
	durable := liveCluster(t, core.ClusterSpec{
		Shards: 3, Redundant: 2, Memgests: schemes,
		DataDir: t.TempDir(), DurableOpts: replog.DurableOptions{Policy: replog.FsyncAlways},
	})
	volatile := liveCluster(t, core.ClusterSpec{Shards: 3, Redundant: 2, Memgests: schemes})

	for _, cl := range []*core.Cluster{durable, volatile} {
		for id, r := range cl.Runs {
			s := &Server{runner: r}
			sameJSON(t, fmt.Sprintf("node %d /status", id), s.snapshot())
			rv := s.ringvars()
			if (cl == durable) != (rv.Node.Durable != nil) {
				t.Fatalf("node %d: durable section %v", id, rv.Node.Durable)
			}
			sameJSON(t, fmt.Sprintf("node %d /debug/ringvars", id), rv)
			var rows []TraceRow
			r.Inspect(func(n *core.Node) {
				for _, e := range n.TraceLast(0) {
					rows = append(rows, traceRow(e))
				}
			})
			sameJSON(t, fmt.Sprintf("node %d /debug/trace", id), rows)
		}
	}
	rv := (&Server{runner: durable.Runs[0]}).ringvars()
	if rv.Node.CommitRep.Count == 0 || len(rv.Node.CommitRep.Buckets) == 0 {
		t.Fatalf("coordinator 0 committed nothing: %+v", rv.Node.CommitRep)
	}
	// Integer keys sort by their text: 10 before 2.
	for id := proto.MemgestID(1); id <= 12; id++ {
		rv.Node.Memgests[id] = core.MemgestOpCounts{Puts: uint64(id)}
	}
	rv.Node.CommitSRS.Buckets = []metrics.HistBucket{} // empty, not nil: omitted too
	sameJSON(t, "memgests 1 to 12", rv)

	var h metrics.Histogram
	h.Observe(3 * time.Millisecond)
	g := metrics.GaugeFunc(func() int64 { return -7 })
	var c metrics.Counter
	var mg metrics.MaxGauge
	var gauge metrics.Gauge
	c.Add(1 << 63)
	mg.Observe(42)
	gauge.Set(math.MinInt64)
	process := map[string]any{}
	for name, v := range map[string]metrics.Var{"counter": &c, "gauge": &gauge, "func": g, "max": &mg, "hist": &h, "empty_hist": new(metrics.Histogram)} {
		process[name] = v.MetricValue()
	}
	for name, v := range metrics.Default.Snapshot() {
		process[name] = v
	}
	sameJSON(t, "process vars", Ringvars{Process: process})
	sameJSON(t, "no process vars", Ringvars{})

	sameJSON(t, "nil rows", []TraceRow(nil))
	sameJSON(t, "no rows", []TraceRow{})
	sameJSON(t, "nil", nil)
}

// FuzzJSONWriter varies the strings and floats of the served documents:
// whatever the bytes, marshalJSON writes what the encoder writes, and
// fails where it fails (NaN, infinities) with its message.
func FuzzJSONWriter(f *testing.F) {
	f.Add("plain", 1.5)
	f.Add("<a href=\"x\">&amp;</a>\\", 1e-6)
	f.Add("\x00\x01\b\f\n\r\t\x1f\x7f", 9.999999e-7)
	f.Add("line\u2028para\u2029", 1e21)
	f.Add("\xff\xfe\xc3(\xe2\x82", 9.99999999999e20)
	f.Add("\ufffd valid replacement, \u00e9, \u65e5\u672c", math.Copysign(0, -1))
	f.Add("", math.NaN())
	f.Add("inf", math.Inf(1))
	f.Add("-inf", math.Inf(-1))
	f.Add("tiny", 5e-324)
	f.Add("huge", math.MaxFloat64)
	f.Fuzz(func(t *testing.T, s string, x float64) {
		row := TraceRow{Seq: 1, AtMS: x, DurUS: -x, Op: s, Key: s, Memgest: 2, Status: s}
		sameJSON(t, "row", []TraceRow{row, {}})
		sameJSON(t, "map", map[string]any{s: x, "f32": float32(x), strings.ToUpper(s): []any{s, x, nil}})
		sameJSON(t, "ringvars", Ringvars{NodeID: 3, Process: map[string]any{s: x}})
	})
}
