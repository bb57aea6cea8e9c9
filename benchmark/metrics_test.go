package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables in this
// package saying the same thing, and within the contract's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the benchmark %q / %q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark has %d", len(bj.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			sawSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s has bound %v, %s the larger %v", d.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !sawSetup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}

	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark has %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, d)
		}
		if d.Moves == "" {
			t.Errorf("%s: no entry in the interaction table", d.Name)
		}
	}

	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer metrics, %d workloads: outside the contract", len(endToEnd), len(perLayer), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range allMetrics() {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not a contract name", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not a contract unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is not a fresh contract name", w.name)
		}
		seen[w.name] = true
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(b))
	}
}

func TestContractJSON(t *testing.T) {
	w := workloads[0]
	r := newResult(w, 3)
	r.Attempted, r.Failed = 1000, 0
	for i, d := range endToEnd {
		r.set(d.Name, 1.5+float64(i))
	}
	r.set("not_in_the_contract", 9)
	line, err := r.contractJSON(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("not one JSON object: %v\n%s", err, line)
	}
	if len(got) != 4 {
		t.Errorf("top-level keys %v, want exactly correct, attempted, failed, metrics", keysOf(got))
	}
	var parsed contractLine
	if err := json.Unmarshal(line, &parsed); err != nil {
		t.Fatal(err)
	}
	if !parsed.Correct || parsed.Attempted != 1000 || parsed.Failed != 0 {
		t.Errorf("header %+v", parsed)
	}
	if len(parsed.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics in the line, want %d", len(parsed.Metrics), len(endToEnd))
	}
	for i, d := range endToEnd {
		m, ok := parsed.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || m.Value != 1.5+float64(i) {
			t.Errorf("%s: got %+v (present %v)", d.Name, m, ok)
		}
	}
	// A metric the workload cannot produce reads 0, and is still there.
	empty := newResult(w, 3)
	line, err = empty.contractJSON(perLayer)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(line, &parsed); err != nil {
		t.Fatal(err)
	}
	if m, ok := parsed.Metrics["move_p50_us"]; !ok || m.Value != 0 {
		t.Errorf("move_p50_us of a run without moves: %+v (present %v)", m, ok)
	}
	// A number that is not one is refused, not printed.
	empty.set("proto.encode_put_ns", math.NaN())
	if _, err := empty.contractJSON(perLayer); err == nil {
		t.Error("NaN was rendered")
	}
}

// TestFoldTakesMediansOverRounds covers how a run is made of its rounds:
// medians over the rounds that have a value (an unhealthy open phase
// leaves its own out), sums for the sample counts, operations counted
// over all, and too few healthy rounds fails the strict verdict only.
func TestFoldTakesMediansOverRounds(t *testing.T) {
	w := workloads[0]
	var measured []*result
	for i, cpu := range []float64{100, 0, 120, 110, 90} {
		rd := newResult(w, int64(i))
		rd.Attempted, rd.Failed = 1000, 0
		rd.set("setup_s", 1+float64(i))
		if cpu > 0 {
			rd.set("cpu_us_per_op", cpu)
			rd.set("put_samples", 10)
		}
		measured = append(measured, rd)
	}
	measured[1].Invalid = []string{"open-phase dispatch lag p99 9ms > 3ms"}

	r := newResult(w, 1)
	r.fold(measured)
	if got := r.Values["cpu_us_per_op"]; got != 105 {
		t.Errorf("cpu_us_per_op = %v, want 105: the median of the four healthy open phases", got)
	}
	if got := r.Values["setup_s"]; got != 3 {
		t.Errorf("setup_s = %v, want 3: the median of all five set-ups", got)
	}
	if got := r.Values["put_samples"]; got != 40 {
		t.Errorf("put_samples = %v, want 40: the sum over the healthy open phases", got)
	}
	if r.Attempted != 5000 || r.Failed != 0 || !r.Correct {
		t.Errorf("attempted %d, failed %d, correct %v", r.Attempted, r.Failed, r.Correct)
	}
	if len(r.Rounds) != 5 || r.Healthy != 4 || len(r.Invalid) != 1 || r.Values["loadgen.healthy_rounds"] != 4 {
		t.Errorf("%d rounds, %d healthy (metric %v), %d reasons, want 5, 4 and 1", len(r.Rounds), r.Healthy, r.Values["loadgen.healthy_rounds"], len(r.Invalid))
	}
	if err := verdict(r, true); err != nil {
		t.Errorf("four healthy rounds and no failure: %v", err)
	}

	for _, i := range []int{0, 2} {
		measured[i].Invalid = []string{"generator used 70% of a core in the open phase"}
	}
	measured[4].Failed = 1
	r = newResult(w, 1)
	r.fold(measured)
	if r.Correct {
		t.Error("a run with a failed operation is correct")
	}
	if err := verdict(r, false); err != nil {
		t.Errorf("the driver's verdict fails on the generator's health or 1 failure in 5000: %v", err)
	}
	if err := verdict(r, true); err == nil {
		t.Errorf("a run with %d of %d rounds healthy and a failed operation passed the strict verdict", r.Healthy, rounds)
	}
}

func TestWriteJSONReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "result.json")
	if err := writeJSON(path, report{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(path, report{Seed: 2, Seconds: 20, Results: []*result{newResult(workloads[0], 2)}}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("%v\n%s", err, b)
	}
	if rep.Seed != 2 || rep.Seconds != 20 || len(rep.Results) != 1 || rep.Results[0].Workload != workloads[0].name {
		t.Errorf("read back %+v", rep)
	}
	if b[len(b)-1] != '\n' {
		t.Error("result file does not end in a newline")
	}
	if left, _ := filepath.Glob(path + ".tmp*"); len(left) != 0 {
		t.Errorf("temporary files left behind: %v", left)
	}
}

func TestFormatValue(t *testing.T) {
	for v, want := range map[float64]string{3: "3", 31164.6: "31164.6", 0.27661: "0.2766", 445.47: "445.5", 12.345678: "12.3457"} {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
