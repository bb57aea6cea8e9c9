// Package experiments regenerates every table and figure of the
// paper's evaluation section. Each experiment is a pure function from
// parameters to printable rows, shared by the ringbench binary and the
// repository's benchmark suite; EXPERIMENTS.md records paper-versus-
// measured values for each.
//
// Latency and throughput experiments run the real Ring node state
// machines inside the discrete-event simulator (package sim) with its
// calibrated RDMA-era cost model; reliability/availability and pricing
// experiments evaluate the analytic models (packages reliability and
// traces); baseline curves come from package baselines.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/sim"
)

// PaperSchemes are the seven memgests of the paper's 5-node deployment
// (Figure 3), in memgest-ID order 1..7.
var PaperSchemes = []proto.Scheme{
	proto.Rep(1, 3),
	proto.Rep(2, 3),
	proto.Rep(3, 3),
	proto.Rep(4, 3),
	proto.SRS(2, 1, 3),
	proto.SRS(3, 1, 3),
	proto.SRS(3, 2, 3),
}

// MemgestID returns the boot-assigned memgest ID of a paper scheme.
func MemgestID(label string) proto.MemgestID {
	for i, sc := range PaperSchemes {
		if sc.Label() == label {
			return proto.MemgestID(i + 1)
		}
	}
	panic("experiments: unknown scheme label " + label)
}

// PaperSpec is the evaluation cluster: 3 coordinators, 2 redundant
// nodes, and spares for the failure experiments.
func PaperSpec(blockSize int) core.ClusterSpec {
	if blockSize <= 0 {
		blockSize = 256 << 10
	}
	return core.ClusterSpec{
		Shards: 3, Redundant: 2, Spares: 2,
		Memgests: PaperSchemes,
		Opts: core.Options{
			BlockSize: blockSize,
			FailAfter: 50 * time.Microsecond,
		},
	}
}

// newPaperSim boots the evaluation cluster in the simulator.
func newPaperSim(blockSize int) (*sim.Sim, *sim.Client, error) {
	spec := PaperSpec(blockSize)
	s, err := sim.NewFromSpec(spec, sim.DefaultModel())
	if err != nil {
		return nil, nil, err
	}
	cfg, err := core.BootConfig(spec)
	if err != nil {
		return nil, nil, err
	}
	return s, sim.NewClient(s, "bench", cfg), nil
}

// LatencyPoint is one (object size -> latency) sample of a figure.
type LatencyPoint struct {
	Size   int
	Median time.Duration
	P90    time.Duration
}

// Series is one labeled curve.
type Series struct {
	Label  string
	Points []LatencyPoint
}

// percentile returns the p-quantile (0..1) of a sample set.
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p * float64(len(s)-1))
	return s[idx]
}

// PaperSizes are the object sizes of Figures 7 and 8: 2^1..2^11 bytes.
func PaperSizes() []int {
	var out []int
	for b := 1; b <= 11; b++ {
		out = append(out, 1<<b)
	}
	return out
}

// FormatSeries renders curves as an aligned text table (sizes as rows,
// one column per series), the output format of ringbench.
func FormatSeries(title, unit string, series []Series) string {
	out := title + "\n"
	out += fmt.Sprintf("%10s", "size(B)")
	for _, s := range series {
		out += fmt.Sprintf(" %14s", s.Label)
	}
	out += fmt.Sprintf("   (%s, median/p90)\n", unit)
	if len(series) == 0 {
		return out
	}
	for i := range series[0].Points {
		out += fmt.Sprintf("%10d", series[0].Points[i].Size)
		for _, s := range series {
			p := s.Points[i]
			out += fmt.Sprintf(" %6.1f/%-7.1f", us(p.Median), us(p.P90))
		}
		out += "\n"
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
