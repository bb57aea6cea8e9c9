package main

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"ring/internal/sim"
)

// offsets are the six timing draws a band is read at: bytes added to
// every packet's size (sim.CostModel.Skew). No offset changes a
// message; each moves when every packet lands, and so which seeds draw
// which fault at which moment.
var offsets = []int{0, 1, -5, -20, 16, -30}

// lanes are the kinds of schedule a band runs, by the name the expect
// file gives them.
var lanes = map[string]sim.ChaosRunSpec{
	"plain":      {},
	"durable":    {Durable: true},
	"elasticity": {Elasticity: true},
}

// band is one lane over an inclusive seed range.
type band struct {
	lane   string
	lo, hi int64
}

// entryKey names one failing verdict of one seed.
type entryKey struct {
	lane    string
	seed    int64
	verdict string
}

// entry is what the file says of one failing (lane, seed, verdict):
// the offsets it occurs at, in the order of offsets (none for a pin, a
// shrunk schedule whose full seed is ok), and the repro line under it:
// the command that replays the seed shrunk at its first offset, after
// the pace of an incomplete one (slow or wedged). Only the tests replay
// it; the check does not read it.
type entry struct {
	at          []int
	pace, repro string
}

// expectFile is a parsed expect file: the bands it declares and its
// entries.
type expectFile struct {
	bands   []band
	entries map[entryKey]*entry
}

const expectHeader = `# What ringchaos reports that is not ok, per lane, seed and verdict,
# over the bands below at six timing offsets (bytes added to every
# packet's size): each entry lists the offsets its verdict occurs at.
# ringchaos -expect FILE [-skew d] exits 1 unless the seeds it finds at
# offset d are exactly the entries that list d; ringchaos -expect FILE
# -update runs the six offsets and rewrites the file. Verdicts:
# violation (not linearizable), incomplete (linearizable, with clients
# unfinished at the horizon), inconclusive (search budget exhausted).
# Under each entry, the schedule its seed shrinks to at its first
# offset, as a repro command; an incomplete one says whether the full
# seed completes at twice the horizon (slow) or not (wedged). A pin is
# a shrunk schedule whose full seed is ok: -update keeps it as it is.
`

func readExpect(path string) (expectFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return expectFile{}, err
	}
	f, err := parseExpect(b)
	if err != nil {
		return expectFile{}, fmt.Errorf("%s: %v", path, err)
	}
	return f, nil
}

// parseExpect reads "band LANE LO:HI", "LANE SEED VERDICT OFFSET...",
// "pin LANE SEED VERDICT" and, under either of the last two, "repro
// [PACE] COMMAND" lines; blank lines and # comments are skipped.
func parseExpect(b []byte) (expectFile, error) {
	f := expectFile{entries: map[entryKey]*entry{}}
	var last *entryKey // the entry a repro line may follow
	sc := bufio.NewScanner(bytes.NewReader(b))
	for n := 1; sc.Scan(); n++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		var err error
		if last, err = f.add(fields, last); err != nil {
			return expectFile{}, fmt.Errorf("line %d: %v", n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return expectFile{}, err
	}
	if len(f.bands) == 0 {
		return expectFile{}, fmt.Errorf("no band declared")
	}
	return f, nil
}

// add reads one line that follows entry last (nil: none a repro line
// may follow) and returns what the next line follows.
func (f *expectFile) add(fields []string, last *entryKey) (*entryKey, error) {
	switch fields[0] {
	case "band":
		if len(fields) != 3 {
			return nil, fmt.Errorf("want band LANE LO:HI, have %q", strings.Join(fields, " "))
		}
		if _, known := lanes[fields[1]]; !known {
			return nil, fmt.Errorf("unknown lane %q", fields[1])
		}
		if _, dup := f.band(fields[1]); dup {
			return nil, fmt.Errorf("second band for lane %s", fields[1])
		}
		lo, hi, err := parseSeedRange(fields[2])
		if err != nil {
			return nil, err
		}
		f.bands = append(f.bands, band{fields[1], lo, hi})
		return nil, nil
	case "repro":
		if last == nil {
			return nil, fmt.Errorf("repro line under no entry")
		}
		return nil, f.addRepro(*last, fields[1:])
	}
	pin := fields[0] == "pin"
	if pin {
		fields = fields[1:]
	}
	if len(fields) < 3 || pin != (len(fields) == 3) {
		return nil, fmt.Errorf("want LANE SEED VERDICT OFFSET... or pin LANE SEED VERDICT, have %q", strings.Join(fields, " "))
	}
	seed, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, err
	}
	k := entryKey{fields[0], seed, fields[2]}
	if b, ok := f.band(k.lane); !ok || seed < b.lo || seed > b.hi {
		return nil, fmt.Errorf("%s seed %d is in no band declared above it", k.lane, seed)
	}
	if !slices.Contains(failing, k.verdict) {
		return nil, fmt.Errorf("unknown verdict %q", k.verdict)
	}
	if _, dup := f.entries[k]; dup {
		return nil, fmt.Errorf("second entry for %s %d %s", k.lane, k.seed, k.verdict)
	}
	e := &entry{}
	for _, s := range fields[3:] {
		d, err := strconv.Atoi(s)
		if err != nil || !slices.Contains(offsets, d) || slices.Contains(e.at, d) {
			return nil, fmt.Errorf("offset %q: want each of %v at most once", s, offsets)
		}
		e.at = append(e.at, d)
	}
	slices.SortFunc(e.at, func(a, b int) int { return slices.Index(offsets, a) - slices.Index(offsets, b) })
	f.entries[k] = e
	return &k, nil
}

// addRepro reads the repro line under entry k: an optional pace, then
// what reproOf words for k's lane and seed at its first offset (0 for a
// pin), with a -schedule.
func (f *expectFile) addRepro(k entryKey, fields []string) error {
	e := f.entries[k]
	if len(fields) > 0 && (fields[0] == "slow" || fields[0] == "wedged") {
		e.pace, fields = fields[0], fields[1:]
	}
	e.repro = strings.Join(fields, " ")
	spec := lanes[k.lane]
	spec.Seed = k.seed
	if len(e.at) > 0 {
		spec.Skew = e.at[0]
	}
	if want := reproOf(spec) + " -schedule '"; !strings.HasPrefix(e.repro, want) {
		return fmt.Errorf("repro %q is not one of %s %d: want %q...", e.repro, k.lane, k.seed, want)
	}
	return nil
}

func (f *expectFile) band(lane string) (band, bool) {
	for _, b := range f.bands {
		if b.lane == lane {
			return b, true
		}
	}
	return band{}, false
}

// sorted returns m's keys ordered by lane, seed and verdict.
func sorted[V any](m map[entryKey]V) []entryKey {
	keys := make([]entryKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b entryKey) int {
		return cmp.Or(cmp.Compare(a.lane, b.lane), cmp.Compare(a.seed, b.seed), cmp.Compare(a.verdict, b.verdict))
	})
	return keys
}

// format writes the file in its one canonical form: the header, the
// bands in declared order, then one sorted line per entry (a pin's
// starts "pin"), each with its repro line under it.
func (f expectFile) format() []byte {
	var b bytes.Buffer
	b.WriteString(expectHeader)
	b.WriteString("\n")
	for _, bd := range f.bands {
		fmt.Fprintf(&b, "band %s %d:%d\n", bd.lane, bd.lo, bd.hi)
	}
	b.WriteString("\n")
	for _, k := range sorted(f.entries) {
		e := f.entries[k]
		if len(e.at) == 0 {
			b.WriteString("pin ")
		}
		fmt.Fprintf(&b, "%s %d %s", k.lane, k.seed, k.verdict)
		for _, d := range e.at {
			fmt.Fprintf(&b, " %d", d)
		}
		if e.repro != "" {
			b.WriteString("\n  repro " + strings.TrimPrefix(e.pace+" ", " ") + e.repro)
		}
		b.WriteString("\n")
	}
	return b.Bytes()
}

// gate runs an expect file's bands.
type gate struct {
	path string
	dump string // where artifacts of failing seeds the file does not list go
	out  io.Writer
	errw io.Writer
}

// runBands runs every band of f at offset d, unshrunk, and returns the
// failing verdicts it saw. With -dump it writes the artifacts of those
// that want does not list.
func (g gate) runBands(f expectFile, d int, want map[entryKey]bool) (map[entryKey]bool, error) {
	seen := map[entryKey]bool{}
	var dumpErr error
	for _, b := range f.bands {
		start := time.Now()
		counts := tally{}
		spec := lanes[b.lane]
		spec.Skew = d
		sweep(b.lo, b.hi, func(seed int64) outcome {
			s := spec
			s.Seed = seed
			o := runSeed(s, false, g.dump != "")
			if want[entryKey{b.lane, seed, o.verdict}] {
				o.kept = nil
			}
			return o
		}, func(o outcome) {
			counts[o.verdict]++
			if o.verdict != sim.OK {
				seen[entryKey{b.lane, o.seed, o.verdict}] = true
			}
			if o.kept != nil && dumpErr == nil {
				dumpErr = dumpFailure(g.dump, o.seed, *o.kept, o.repros)
			}
		})
		fmt.Fprintf(g.out, "ringchaos: %s %d:%d at skew %d: %s (%.1fs)\n",
			b.lane, b.lo, b.hi, d, counts, time.Since(start).Seconds())
	}
	if dumpErr != nil {
		return nil, fmt.Errorf("writing artifacts: %v", dumpErr)
	}
	return seen, nil
}

// check runs the bands at offset d and compares what fails with the
// entries that list d: 0 when they are the same, 1 when not, 2 when the
// file cannot be read or artifacts written.
func (g gate) check(d int) int {
	f, err := readExpect(g.path)
	if err != nil {
		fmt.Fprintf(g.errw, "ringchaos: %v\n", err)
		return 2
	}
	want := map[entryKey]bool{}
	for k, e := range f.entries {
		want[k] = slices.Contains(e.at, d)
	}
	start := time.Now()
	seen, err := g.runBands(f, d, want)
	if err != nil {
		fmt.Fprintf(g.errw, "ringchaos: %v\n", err)
		return 2
	}
	diff := map[entryKey]bool{} // each difference, true when it is new
	for k := range seen {
		if !want[k] {
			diff[k] = true
		}
	}
	for k, listed := range want {
		if listed && !seen[k] {
			diff[k] = false
		}
	}
	for _, k := range sorted(diff) {
		word := "new"
		if !diff[k] {
			word = "gone"
		}
		spec := lanes[k.lane]
		spec.Seed, spec.Skew = k.seed, d
		fmt.Fprintf(g.out, "%s: %s %d %s\n  repro: %s\n", word, k.lane, k.seed, k.verdict, reproOf(spec))
		if e := f.entries[k]; e != nil && e.repro != "" {
			fmt.Fprintf(g.out, "  repro (shrunk, from the file): %s\n", e.repro)
		}
	}
	if len(diff) > 0 {
		fmt.Fprintf(g.out, "ringchaos: %s at skew %d: %d differences (%.1fs)\n", g.path, d, len(diff), time.Since(start).Seconds())
		return 1
	}
	fmt.Fprintf(g.out, "ringchaos: %s at skew %d: as expected (%.1fs)\n", g.path, d, time.Since(start).Seconds())
	return 0
}

// update runs the bands at every offset, shrinks each entry at the
// first offset that lists it, prints per lane and verdict the seeds
// failing at each offset before and after, and rewrites the file. A pin
// stays as it is while its full seed is ok.
func (g gate) update() int {
	old, err := readExpect(g.path)
	if err != nil {
		fmt.Fprintf(g.errw, "ringchaos: %v\n", err)
		return 2
	}
	next := expectFile{bands: old.bands, entries: map[entryKey]*entry{}}
	for k, e := range old.entries {
		if len(e.at) == 0 {
			next.entries[k] = &entry{pace: e.pace, repro: e.repro}
		}
	}
	for _, d := range offsets {
		seen, err := g.runBands(old, d, nil)
		if err != nil {
			fmt.Fprintf(g.errw, "ringchaos: %v\n", err)
			return 2
		}
		for k := range seen {
			if next.entries[k] == nil {
				next.entries[k] = &entry{}
			}
			next.entries[k].at = append(next.entries[k].at, d)
		}
	}
	start := time.Now()
	keys := sorted(next.entries)
	keys = slices.DeleteFunc(keys, func(k entryKey) bool { return len(next.entries[k].at) == 0 })
	n := 0
	sweep(0, int64(len(keys))-1, func(i int64) outcome {
		spec := lanes[keys[i].lane]
		spec.Seed, spec.Skew = keys[i].seed, next.entries[keys[i]].at[0]
		return runSeed(spec, true, false)
	}, func(o outcome) {
		next.entries[keys[n]].pace, next.entries[keys[n]].repro = o.pace, o.shrunk
		n++
	})
	fmt.Fprintf(g.out, "ringchaos: %d entries shrunk (%.1fs)\n", len(keys), time.Since(start).Seconds())
	fmt.Fprintf(g.out, "ringchaos: seeds per offset %v (mean ± standard deviation, seeds named), before -> after\n", offsets)
	for _, b := range next.bands {
		for _, v := range failing {
			was, wasSeeds := old.counts(b.lane, v)
			now, nowSeeds := next.counts(b.lane, v)
			if wasSeeds+nowSeeds > 0 {
				fmt.Fprintf(g.out, "  %-10s %-12s %s -> %s\n", b.lane, v, was, now)
			}
		}
	}
	if err := os.WriteFile(g.path, next.format(), 0o644); err != nil {
		fmt.Fprintf(g.errw, "ringchaos: %v\n", err)
		return 2
	}
	return 0
}

// counts words the entries of one lane and verdict: how many list each
// offset, the mean and standard deviation of those counts, and how many
// entries there are.
func (f expectFile) counts(lane, verdict string) (string, int) {
	n := make([]float64, len(offsets))
	seeds := 0
	for k, e := range f.entries {
		if k.lane != lane || k.verdict != verdict || len(e.at) == 0 {
			continue
		}
		seeds++
		for _, d := range e.at {
			n[slices.Index(offsets, d)]++
		}
	}
	var sum, sq float64
	words := make([]string, len(n))
	for i, x := range n {
		words[i] = strconv.Itoa(int(x))
		sum += x
	}
	mean := sum / float64(len(n))
	for _, x := range n {
		sq += (x - mean) * (x - mean)
	}
	return fmt.Sprintf("%s (%.1f ± %.1f, %d)", strings.Join(words, " "), mean, math.Sqrt(sq/float64(len(n))), seeds), seeds
}
