package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

// metricDef names one metric. BENCHMARK.json repeats name, unit, better
// and bound; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves says which end-to-end metric, on which workload, this layer
	// metric is expected to move (per-layer only; README.md has the
	// table).
	Moves string
}

// endToEnd lists the bounded metrics: costs a user of the deployment
// pays that repeat from run to run well within a bound of 0.10 on the
// box the benchmark was written on, and setup_s, which the driver's
// contract wants with the widest bound. Every workload reports every
// one of them, measured with tracing off. Throughput, latency and
// processor time per operation, which a user sees first, move by 0.10
// and more between two passes over the same code there, and are
// reported with the per-layer metrics, without a bound; README.md has
// the measurements.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rss_loaded_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "net_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.05},
}

const (
	movesRep   = "put_p50_us, tput_ops_s, cpu_us_per_op on rep3_1k_mixed"
	movesRead  = "get_p50_us, tput_ops_s, cpu_us_per_op on tier_1k_read90_move"
	movesCode  = "put_p50_us, tput_ops_s, cpu_us_per_op on srs32_16k_put; move_p50_us on tier_1k_read90_move; none on rep3_1k_mixed"
	movesDisk  = "put_p50_us, put_p99_us, get_p99_us, tput_ops_s on rep3_1k_fsync; none on the volatile workloads"
	movesLoad  = "rises before tput_ops_s stops rising, so p99s move first"
	movesUser  = "what a user sees; moves by 0.10 and more between passes over the same code here, so no bound"
	movesGuard = "validity of the run, not a target"
)

// perLayer lists the metrics of single layers, from three sources: the
// layer rows (calls into each module, timed from outside), the traced
// in-process run, and the counters ringd exports plus /proc.
var perLayer = []metricDef{
	// Layer rows, on inputs of the workload's value size.
	{Name: "proto.encode_put_ns", Unit: "ns", Better: "lower", Moves: movesRep},
	{Name: "proto.decode_put_ns", Unit: "ns", Better: "lower", Moves: movesRep},
	{Name: "proto.batch_pack_ns", Unit: "ns", Better: "lower", Moves: movesRep},
	{Name: "transport.memnet_rtt_ns", Unit: "ns", Better: "lower", Moves: "trace.* latencies only: the deployment uses tcpnet"},
	{Name: "transport.tcpnet_rtt_ns", Unit: "ns", Better: "lower", Moves: movesRep},
	{Name: "store.heap_write_ns", Unit: "ns", Better: "lower", Moves: movesCode},
	{Name: "store.meta_put_get_ns", Unit: "ns", Better: "lower", Moves: movesRead},
	{Name: "gf.mulslicexor_gbps", Unit: "GB/s", Better: "higher", Moves: movesCode},
	{Name: "gf.xorslice_gbps", Unit: "GB/s", Better: "higher", Moves: movesCode},
	{Name: "rs.encode_gbps", Unit: "GB/s", Better: "higher", Moves: movesCode},
	{Name: "srs.parity_delta_ns", Unit: "ns", Better: "lower", Moves: movesCode},
	{Name: "srs.encode_stretched_gbps", Unit: "GB/s", Better: "higher", Moves: movesCode},
	{Name: "wal.append_ns", Unit: "ns", Better: "lower", Moves: movesDisk},
	{Name: "wal.append_sync_us", Unit: "us", Better: "lower", Moves: movesDisk},
	{Name: "bitcask.put_ns", Unit: "ns", Better: "lower", Moves: movesDisk},
	{Name: "bitcask.put_sync_us", Unit: "us", Better: "lower", Moves: movesDisk},
	{Name: "replog.append_commit_sync_us", Unit: "us", Better: "lower", Moves: movesDisk},
	{Name: "replog.recover_ms", Unit: "ms", Better: "lower", Moves: "setup_s after a restart; measured on rep3_1k_fsync only"},

	// Traced in-process run, per operation: medians or exact counts.
	{Name: "trace.client.self_us", Unit: "us", Better: "lower", Moves: movesRep},
	{Name: "trace.core.coord_turn_us", Unit: "us", Better: "lower", Moves: movesRead + "; put_p50_us everywhere"},
	{Name: "trace.core.replica_turn_us", Unit: "us", Better: "lower", Moves: movesRep},
	{Name: "trace.core.parity_turn_us", Unit: "us", Better: "lower", Moves: movesCode},
	{Name: "trace.transport.send_us_per_put", Unit: "us", Better: "lower", Moves: movesRep},
	{Name: "trace.msgs_per_put", Unit: "count", Better: "lower", Moves: movesRep},
	{Name: "trace.bytes_per_put", Unit: "B", Better: "lower", Moves: "net_bytes_per_op everywhere; " + movesCode},
	{Name: "trace.msgs_per_get", Unit: "count", Better: "lower", Moves: movesRead},
	{Name: "trace.bytes_per_get", Unit: "B", Better: "lower", Moves: "net_bytes_per_op everywhere; " + movesRead},
	{Name: "trace.msgs_per_move", Unit: "count", Better: "lower", Moves: "move_p50_us on tier_1k_read90_move"},
	{Name: "trace.wal.fs_append_us_per_put", Unit: "us", Better: "lower", Moves: movesDisk},
	{Name: "trace.wal.fs_sync_us_per_put", Unit: "us", Better: "lower", Moves: movesDisk},
	{Name: "trace.fsyncs_per_put", Unit: "count", Better: "lower", Moves: movesDisk},
	{Name: "trace.disk_bytes_per_put_byte", Unit: "ratio", Better: "lower", Moves: movesDisk},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: "trust in the trace.* times, not a target"},

	// Counters ringd exports, as deltas over the closed phase.
	{Name: "core.events_per_op", Unit: "count", Better: "lower", Moves: movesRep},
	{Name: "core.msgs_out_per_op", Unit: "count", Better: "lower", Moves: movesRep},
	{Name: "core.inbox_high_water", Unit: "count", Better: "lower", Moves: movesLoad},
	{Name: "core.commit_rep_p50_us", Unit: "us", Better: "lower", Moves: movesRep},
	{Name: "core.commit_srs_p50_us", Unit: "us", Better: "lower", Moves: movesCode},
	{Name: "core.parity_xor_bytes_per_op", Unit: "B", Better: "lower", Moves: movesCode},
	{Name: "transport.packets_per_op", Unit: "count", Better: "lower", Moves: movesRep},
	{Name: "transport.batched_frac", Unit: "ratio", Better: "higher", Moves: movesRep},
	{Name: "client.retries_per_op", Unit: "ratio", Better: "lower", Moves: movesGuard},
	{Name: "client.timeouts", Unit: "count", Better: "lower", Moves: movesGuard},

	// /proc and the harness itself.
	{Name: "ringd.cpu_us_per_op_closed", Unit: "us", Better: "lower", Moves: "tput_ops_s: at saturation the two cores are the shared resource"},
	{Name: "ringd.rss_peak_mb", Unit: "MB", Better: "lower", Moves: "rss_loaded_mb plus what the phases add: buffers in flight and garbage between collections"},
	{Name: "loadgen.cpu_frac", Unit: "ratio", Better: "lower", Moves: movesGuard},
	{Name: "loadgen.sched_lag_p99_us", Unit: "us", Better: "lower", Moves: movesLoad},
	{Name: "loadgen.backlog_end", Unit: "count", Better: "lower", Moves: movesLoad},
	{Name: "loadgen.healthy_rounds", Unit: "count", Better: "higher", Moves: movesGuard},
	{Name: "harness.build_s", Unit: "s", Better: "lower", Moves: "none; excluded from setup_s"},

	// Throughput of the closed phase, latencies and processor time of
	// the open phase.
	{Name: "tput_ops_s", Unit: "1/s", Better: "higher", Moves: movesUser},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Moves: movesUser},
	{Name: "put_p50_us", Unit: "us", Better: "lower", Moves: movesUser},
	{Name: "put_p99_us", Unit: "us", Better: "lower", Moves: movesUser},
	{Name: "put_p999_us", Unit: "us", Better: "lower", Moves: "information only"},
	{Name: "get_p50_us", Unit: "us", Better: "lower", Moves: movesUser},
	{Name: "get_p99_us", Unit: "us", Better: "lower", Moves: movesUser},
	{Name: "get_p999_us", Unit: "us", Better: "lower", Moves: "information only"},
	{Name: "move_p50_us", Unit: "us", Better: "lower", Moves: movesUser},
	{Name: "move_p99_us", Unit: "us", Better: "lower", Moves: movesUser},
	{Name: "put_samples", Unit: "count", Better: "higher", Moves: "sample count behind put_p*_us, all rounds"},
	{Name: "get_samples", Unit: "count", Better: "higher", Moves: "sample count behind get_p*_us, all rounds"},
	{Name: "move_samples", Unit: "count", Better: "higher", Moves: "sample count behind move_p*_us, all rounds"},
	{Name: "fail_frac", Unit: "ratio", Better: "lower", Moves: "must stay 0"},
}

// allMetrics lists the end-to-end metrics, then the per-layer ones.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// result is what one run of one workload measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Values    map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	// Wrong counts replies that contradicted an acknowledged write; they
	// are part of Failed.
	Wrong int `json:"wrong_replies"`
	// Correct is false when any operation failed.
	Correct bool `json:"correct"`
	// Invalid lists the reasons an open phase measured the generator or
	// the scheduler instead of Ring; its numbers are left out.
	Invalid []string `json:"invalid,omitempty"`
	Notes   []string `json:"notes,omitempty"`
	// Rounds holds what each round measured, Healthy counts those with a
	// healthy generator, and Values are the medians over Rounds. Both are
	// empty on a single round's own result.
	Rounds  []map[string]float64 `json:"rounds,omitempty"`
	Healthy int                  `json:"healthy_rounds,omitempty"`
}

func newResult(w *spec, seed int64) *result {
	return &result{Workload: w.name, Seed: seed, Values: make(map[string]float64), Correct: true}
}

func (r *result) set(name string, v float64) { r.Values[name] = v }

func (r *result) failFrac() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// print writes every measured metric of defs by name with its unit and,
// for a bounded one, what each round measured.
func (r *result) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		v, ok := r.Values[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14s %-5s", d.Name, formatValue(v), d.Unit)
		if d.Bound > 0 {
			sep := "  rounds: "
			for _, round := range r.Rounds {
				fmt.Fprintf(w, "%s%s", sep, formatValue(round[d.Name]))
				sep = " "
			}
		}
		fmt.Fprintln(w)
	}
}

func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case v == math.Trunc(v) && a < 1e12:
		return fmt.Sprintf("%.0f", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// contractLine is the last line of standard output in driver mode.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractJSON renders r restricted to defs. A metric a workload cannot
// produce (a move latency without moves) reads 0.
func (r *result) contractJSON(defs []metricDef) ([]byte, error) {
	line := contractLine{
		Correct:   r.Correct,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]contractValue, len(defs)),
	}
	for _, d := range defs {
		v := r.Values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		line.Metrics[d.Name] = contractValue{Value: v, Unit: d.Unit}
	}
	return json.Marshal(line)
}

// hostFacts are recorded with every result file: numbers from two boxes
// are not comparable.
type hostFacts struct {
	NProc           int    `json:"nproc"`
	GoVersion       string `json:"go_version"`
	GOOS            string `json:"goos"`
	GOARCH          string `json:"goarch"`
	DataDirFS       string `json:"data_dir_filesystem"`
	FsyncPolicy     string `json:"fsync_policy_of_rep3_1k_fsync"`
	RingdGOMAXPROCS string `json:"ringd_gomaxprocs"`
	Connections     int    `json:"connections"`
	ClosedDepth     int    `json:"closed_depth_per_connection"`
}

func currentHost(out string) hostFacts {
	gmp := os.Getenv("GOMAXPROCS")
	if gmp == "" {
		gmp = fmt.Sprintf("default (%d)", runtime.NumCPU())
	}
	return hostFacts{
		NProc:           runtime.NumCPU(),
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		DataDirFS:       fsTypeOf(out),
		FsyncPolicy:     "always",
		RingdGOMAXPROCS: gmp,
		Connections:     connections,
		ClosedDepth:     closedDepth,
	}
}

func (h hostFacts) String() string {
	return fmt.Sprintf("nproc=%d %s %s/%s data-dir-fs=%s fsync=%s ringd-GOMAXPROCS=%s connections=%d depth=%d",
		h.NProc, h.GoVersion, h.GOOS, h.GOARCH, h.DataDirFS, h.FsyncPolicy, h.RingdGOMAXPROCS, h.Connections, h.ClosedDepth)
}

// report is the result file of a full run.
type report struct {
	Host    hostFacts `json:"host"`
	Seed    int64     `json:"seed"`
	Seconds int       `json:"seconds"`
	Results []*result `json:"results"`
}

// writeJSON writes v to path, indented, through a temporary file so a
// reader never sees half a result.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// worse returns by how much, as a share of base, got is worse than base
// for a metric; negative when it is better.
func (d metricDef) worse(base, got float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - got) / math.Abs(base)
	}
	return (got - base) / math.Abs(base)
}
