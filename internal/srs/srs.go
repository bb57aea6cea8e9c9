// Package srs implements Stretched Reed-Solomon coding, the paper's
// central contribution (Section 3.3).
//
// An SRS(k,m,s) code applies the RS(k,m) coding algorithm to the data
// but spreads ("stretches") the data blocks over s >= k data nodes
// instead of k. The original data is divided into l = lcm(k,s) logical
// blocks; each of the s data nodes stores l/s consecutive logical
// blocks and each of the m parity nodes stores l/k parity blocks.
// Because every scheme with the same s exposes s data shards, all
// SRS(k,m,s) and Rep(r,s) schemes in one memgest group share the
// single key-to-node mapping i = h(key) mod s, which is what lets Ring
// look keys up without knowing their storage scheme and move keys
// between schemes locally.
//
// The logical-block index space works as follows (all 0-based):
//
//   - logical data blocks b in [0, l) are assigned to data node
//     b / (l/s);
//   - block b belongs to stripe position j = b / (l/k) (the column
//     block of the expanded matrix Hexp = H ∘ E of Eqn. (2)) at
//     stripe offset t = b mod (l/k);
//   - parity node r stores parity blocks P[r][t] for t in [0, l/k),
//     with P[r][t] = XOR_j g_rj * D[j*(l/k) + t].
//
// A write to logical block b therefore produces, for every parity
// node r, a delta g_{r, j(b)} * (old XOR new) applied at parity offset
// t(b), which is exactly the update path the Ring coordinator runs.
package srs

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"ring/internal/gf"
	"ring/internal/rs"
)

// Layout describes an SRS(k,m,s) code and the derived block geometry.
type Layout struct {
	K int // RS data blocks
	M int // RS parity blocks (and parity nodes)
	S int // data nodes the k blocks are stretched over (s >= k)
	L int // lcm(k, s): number of logical data blocks

	enc *rs.Encoder
}

// lcm returns the least common multiple of a and b.
func lcm(a, b int) int { return a / gcd(a, b) * b }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// NewLayout validates the parameters and computes the geometry.
// SRS(k,m,k) is identical to RS(k,m).
func NewLayout(k, m, s int) (*Layout, error) {
	if k < 1 {
		return nil, fmt.Errorf("srs: k must be >= 1, got %d", k)
	}
	if m < 0 {
		return nil, fmt.Errorf("srs: m must be >= 0, got %d", m)
	}
	if s < k {
		return nil, fmt.Errorf("srs: s (%d) must be >= k (%d)", s, k)
	}
	enc, err := rs.NewEncoder(k, m)
	if err != nil {
		return nil, err
	}
	return &Layout{K: k, M: m, S: s, L: lcm(k, s), enc: enc}, nil
}

// MustLayout is NewLayout that panics on error, for tests and tables
// of static configurations.
func MustLayout(k, m, s int) *Layout {
	l, err := NewLayout(k, m, s)
	if err != nil {
		panic(err)
	}
	return l
}

// String formats the scheme like the paper: SRS(k,m,s).
func (l *Layout) String() string { return fmt.Sprintf("SRS(%d,%d,%d)", l.K, l.M, l.S) }

// Encoder exposes the underlying RS(k,m) encoder.
func (l *Layout) Encoder() *rs.Encoder { return l.enc }

// BlocksPerDataNode returns l/s, the logical blocks held by each data
// node.
func (l *Layout) BlocksPerDataNode() int { return l.L / l.S }

// BlocksPerParityNode returns l/k, the parity blocks held by each
// parity node (also the number of stripes).
func (l *Layout) BlocksPerParityNode() int { return l.L / l.K }

// Stripes returns the number of independent RS stripes, l/k.
func (l *Layout) Stripes() int { return l.L / l.K }

// DataNodeOf returns the data node holding logical block b.
func (l *Layout) DataNodeOf(b int) int {
	l.checkBlock(b)
	return b / l.BlocksPerDataNode()
}

// NodeBlocks returns the half-open range [lo, hi) of logical blocks
// held by data node i.
func (l *Layout) NodeBlocks(i int) (lo, hi int) {
	if i < 0 || i >= l.S {
		panic(fmt.Sprintf("srs: data node %d out of range [0,%d)", i, l.S))
	}
	per := l.BlocksPerDataNode()
	return i * per, (i + 1) * per
}

// StripePos returns the RS stripe position (column block j of Hexp) of
// logical block b; the generator coefficient for parity r is G[r][j].
func (l *Layout) StripePos(b int) int {
	l.checkBlock(b)
	return b / l.Stripes()
}

// StripeOffset returns the offset t of logical block b within its
// stripe; parity for b lives at parity-local block t on every parity
// node.
func (l *Layout) StripeOffset(b int) int {
	l.checkBlock(b)
	return b % l.Stripes()
}

// BlockAt returns the logical block at stripe position j, offset t —
// the inverse of (StripePos, StripeOffset).
func (l *Layout) BlockAt(j, t int) int {
	if j < 0 || j >= l.K {
		panic(fmt.Sprintf("srs: stripe position %d out of range [0,%d)", j, l.K))
	}
	if t < 0 || t >= l.Stripes() {
		panic(fmt.Sprintf("srs: stripe offset %d out of range [0,%d)", t, l.Stripes()))
	}
	return j*l.Stripes() + t
}

// Coefficient returns the generator coefficient g applied to updates
// of logical block b when propagated to parity node r: the parity
// delta is g * (old XOR new).
func (l *Layout) Coefficient(r, b int) byte {
	return l.enc.Coefficient(r, l.StripePos(b))
}

func (l *Layout) checkBlock(b int) {
	if b < 0 || b >= l.L {
		l.panicBlock(b)
	}
}

//ring:hotpath-stop cold panic constructor
func (l *Layout) panicBlock(b int) {
	panic(fmt.Sprintf("srs: logical block %d out of range [0,%d)", b, l.L))
}

// StripeMembers returns, for stripe offset t, the logical data blocks
// participating in the stripe, ordered by stripe position.
func (l *Layout) StripeMembers(t int) []int {
	out := make([]int, l.K)
	for j := 0; j < l.K; j++ {
		out[j] = l.BlockAt(j, t)
	}
	return out
}

// EncodeStretched computes the parity blocks for l logical data
// blocks. data must contain exactly L equally sized blocks. The result
// is indexed parity[r][t]: parity node r, stripe offset t.
//
// Stripes are independent RS codewords, so large encodes (at least
// parallelEncodeBytes of data per stripe) are fanned out across
// GOMAXPROCS workers; see EncodeStretchedParallel for explicit
// control.
func (l *Layout) EncodeStretched(data [][]byte) ([][][]byte, error) {
	workers := 1
	if l.Stripes() > 1 && len(data) == l.L && len(data[0])*l.K >= parallelEncodeBytes {
		workers = 0 // let EncodeStretchedParallel pick GOMAXPROCS
	}
	return l.EncodeStretchedParallel(data, workers)
}

// parallelEncodeBytes is the per-stripe data volume below which the
// goroutine fan-out of EncodeStretched costs more than it saves.
const parallelEncodeBytes = 64 << 10

// EncodeStretchedParallel is EncodeStretched with an explicit worker
// count: the Stripes() independent RS stripes are encoded by
// min(workers, stripes) goroutines. workers <= 0 selects GOMAXPROCS;
// workers == 1 encodes inline with no goroutines.
func (l *Layout) EncodeStretchedParallel(data [][]byte, workers int) ([][][]byte, error) {
	if len(data) != l.L {
		return nil, fmt.Errorf("srs: got %d logical blocks, want %d", len(data), l.L)
	}
	stripes := l.Stripes()
	parity := make([][][]byte, l.M)
	for r := range parity {
		parity[r] = make([][]byte, stripes)
	}
	encodeStripe := func(t int) error {
		stripe := make([][]byte, l.K)
		for j := 0; j < l.K; j++ {
			stripe[j] = data[l.BlockAt(j, t)]
		}
		ps, err := l.enc.Encode(stripe)
		if err != nil {
			return err
		}
		for r := 0; r < l.M; r++ {
			parity[r][t] = ps[r]
		}
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > stripes {
		workers = stripes
	}
	if workers <= 1 {
		for t := 0; t < stripes; t++ {
			if err := encodeStripe(t); err != nil {
				return nil, err
			}
		}
		return parity, nil
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= stripes {
					return
				}
				if err := encodeStripe(t); err != nil {
					errOnce.Do(func() { firstEr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return parity, nil
}

// RecoverBlock reconstructs logical data block b from survivors:
// survivorData maps logical block index -> contents, survivorParity
// maps (parity node, stripe offset) via ParityKey -> contents. Only
// blocks from b's stripe are consulted. This mirrors the paper's
// online decoding: the recovery master collects any k corresponding
// blocks from the coding stripe and decodes.
func (l *Layout) RecoverBlock(b int, survivorData map[int][]byte, survivorParity map[ParityKey][]byte) ([]byte, error) {
	t := l.StripeOffset(b)
	want := l.StripePos(b)
	survivors := make(map[int][]byte, l.K)
	for j := 0; j < l.K; j++ {
		if j == want {
			continue
		}
		if d, ok := survivorData[l.BlockAt(j, t)]; ok {
			survivors[j] = d
		}
	}
	for r := 0; r < l.M; r++ {
		if p, ok := survivorParity[ParityKey{Node: r, Offset: t}]; ok {
			survivors[l.K+r] = p
		}
	}
	return l.enc.ReconstructShard(want, survivors)
}

// RecoverParityBlock reconstructs parity block (r, t) from the stripe's
// data blocks (re-encoding), requiring all k data blocks of stripe t.
func (l *Layout) RecoverParityBlock(r, t int, stripeData map[int][]byte) ([]byte, error) {
	survivors := make(map[int][]byte, l.K)
	for j := 0; j < l.K; j++ {
		d, ok := stripeData[l.BlockAt(j, t)]
		if !ok {
			return nil, fmt.Errorf("srs: stripe %d missing data block at position %d", t, j)
		}
		survivors[j] = d
	}
	return l.enc.ReconstructShard(l.K+r, survivors)
}

// ParityKey addresses one parity block: parity node r, stripe offset t.
type ParityKey struct {
	Node   int
	Offset int
}

// ParityDelta computes the deltas to apply at each parity node when
// logical block b changes by delta (= old XOR new): out[r] must be
// XORed into parity node r at stripe offset StripeOffset(b).
func (l *Layout) ParityDelta(b int, delta []byte) [][]byte {
	n := len(delta)
	buf := make([]byte, l.M*n)
	out := make([][]byte, l.M)
	for r := range out {
		out[r] = buf[r*n : (r+1)*n : (r+1)*n]
	}
	l.ParityDeltaInto(b, delta, out)
	return out
}

// ParityDeltaInto is ParityDelta into buffers the caller owns: out
// holds M slices of len(delta) bytes each. The coordinator's put path
// passes pooled buffers, so a put allocates nothing value-sized here.
//
//ring:hotpath
func (l *Layout) ParityDeltaInto(b int, delta []byte, out [][]byte) {
	j := l.StripePos(b)
	for r := 0; r < l.M; r++ {
		gf.MulSlice(l.enc.Coefficient(r, j), delta, out[r])
	}
}

// WarmParityDelta builds the product tables ParityDeltaInto multiplies
// with for the blocks of one data node, so that the node's first puts
// do not build them (128 KiB per coefficient) on the commit path. A
// node needs the coefficients of its own stripe positions only: at most
// M tables when it holds one position, none for an all-ones parity row.
func (l *Layout) WarmParityDelta(node int) {
	lo, hi := l.NodeBlocks(node)
	for b := lo; b < hi; b++ {
		for r := 0; r < l.M; r++ {
			gf.WarmTables(l.enc.Coefficient(r, l.StripePos(b)))
		}
	}
}

// CanTolerate reports whether the code survives the simultaneous
// failure of the given nodes. Node indices 0..s-1 are data nodes,
// s..s+m-1 are parity nodes. Because RS(k,m) is MDS, a stripe is
// recoverable iff it loses at most m of its k+m blocks; the whole
// system survives iff every stripe does. Stretching means failed data
// nodes may hit disjoint stripes, which is why SRS can sometimes
// tolerate more than m failures (e.g. SRS(2,1,4) survives the loss of
// two data nodes holding independent blocks).
func (l *Layout) CanTolerate(failed []int) bool {
	failedParity := 0
	failedDataNode := make([]bool, l.S)
	for _, n := range failed {
		switch {
		case n < 0 || n >= l.S+l.M:
			panic(fmt.Sprintf("srs: node %d out of range [0,%d)", n, l.S+l.M))
		case n < l.S:
			failedDataNode[n] = true
		default:
			failedParity++
		}
	}
	if failedParity > l.M {
		return false
	}
	// Count data losses per stripe position set: stripe t loses block
	// at position j iff the node holding BlockAt(j,t) failed.
	for t := 0; t < l.Stripes(); t++ {
		lost := failedParity
		for j := 0; j < l.K; j++ {
			if failedDataNode[l.DataNodeOf(l.BlockAt(j, t))] {
				lost++
			}
		}
		if lost > l.M {
			return false
		}
	}
	return true
}

// TolerationProbability returns f_{i-1} of Appendix A.2: the fraction
// of all i-subsets of the s+m nodes whose simultaneous failure the
// code tolerates, computed by exact enumeration.
func (l *Layout) TolerationProbability(i int) float64 {
	n := l.S + l.M
	if i < 0 || i > n {
		return 0
	}
	if i == 0 {
		return 1
	}
	total, ok := 0, 0
	subset := make([]int, 0, i)
	var rec func(start int)
	rec = func(start int) {
		if len(subset) == i {
			total++
			if l.CanTolerate(subset) {
				ok++
			}
			return
		}
		for v := start; v < n; v++ {
			subset = append(subset, v)
			rec(v + 1)
			subset = subset[:len(subset)-1]
		}
	}
	rec(0)
	if total == 0 {
		return 0
	}
	return float64(ok) / float64(total)
}

// MaxTolerated returns u of Appendix A.2: the largest number of
// simultaneous node failures with nonzero survival probability.
func (l *Layout) MaxTolerated() int {
	u := 0
	for i := 1; i <= l.S+l.M; i++ {
		if l.TolerationProbability(i) > 0 {
			u = i
		} else {
			break
		}
	}
	return u
}

// ExpandedMatrix returns Hexp of Eqn. (2): the (l + lm/k) x l matrix
// obtained as the entry-wise expansion H ∘ E with E_ij = I_{l/k}. It
// is used by tests to verify that the block-level layout math encodes
// identically to the matrix formulation.
func (l *Layout) ExpandedMatrix() rs.Matrix {
	h := l.enc.CodingMatrix()
	blk := l.Stripes() // l/k
	rows := l.L + l.M*blk
	out := rs.NewMatrix(rows, l.L)
	for bi := 0; bi < l.K+l.M; bi++ {
		for bj := 0; bj < l.K; bj++ {
			c := h[bi][bj]
			if c == 0 {
				continue
			}
			for d := 0; d < blk; d++ {
				out[bi*blk+d][bj*blk+d] = c
			}
		}
	}
	return out
}

// StorageOverhead returns the memory overhead factor of the scheme:
// (k+m)/k. Stretching does not change the total volume of stored data,
// only its distribution.
func (l *Layout) StorageOverhead() float64 {
	return float64(l.K+l.M) / float64(l.K)
}

// SchemeCount returns the number of distinct erasure-coded storage
// schemes sharing stretch factor s, which the paper gives as
// s(s-1)/2 (all SRS(k,m,s) with 2 <= k <= s and 1 <= m < k).
func SchemeCount(s int) int {
	return s * (s - 1) / 2
}

// CountSubsets returns C(n, r) using 64-bit arithmetic; it panics on
// overflow, which cannot happen for the node counts used here.
func CountSubsets(n, r int) int {
	if r < 0 || r > n {
		return 0
	}
	if r > n-r {
		r = n - r
	}
	acc := uint64(1)
	for i := 0; i < r; i++ {
		hi, lo := bits.Mul64(acc, uint64(n-i))
		if hi != 0 {
			panic("srs: binomial overflow")
		}
		acc = lo / uint64(i+1)
	}
	return int(acc)
}
