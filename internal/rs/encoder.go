package rs

import (
	"errors"
	"fmt"

	"ring/internal/gf"
)

// Encoder implements systematic RS(k,m) coding: k data shards are
// stored verbatim, m parity shards are linear combinations given by
// the generator matrix G, so the full coding matrix is H = [I; G].
type Encoder struct {
	k, m int
	// h is the (k+m) x k coding matrix [I; G].
	h Matrix
}

var (
	// ErrShardCount is returned when the number of shards passed to an
	// operation does not match the code parameters.
	ErrShardCount = errors.New("rs: wrong number of shards")
	// ErrShardSize is returned when shards have inconsistent sizes.
	ErrShardSize = errors.New("rs: shards have inconsistent sizes")
	// ErrTooFewShards is returned when fewer than k shards survive.
	ErrTooFewShards = errors.New("rs: too few shards to reconstruct")
)

// NewEncoder constructs an RS(k,m) encoder. It requires k >= 1,
// m >= 0, and k+m <= 256 (the field size bounds the number of
// distinguishable shards).
func NewEncoder(k, m int) (*Encoder, error) {
	if k < 1 {
		return nil, fmt.Errorf("rs: k must be >= 1, got %d", k)
	}
	if m < 0 {
		return nil, fmt.Errorf("rs: m must be >= 0, got %d", m)
	}
	if k+m > 256 {
		return nil, fmt.Errorf("rs: k+m must be <= 256, got %d", k+m)
	}
	// No product table is built here: most holders of an encoder never
	// multiply (a parity node XORs deltas a coordinator multiplied), so
	// the 128 KiB word tables of gf's portable kernel are built on first
	// use, or ahead of it by the one caller with a commit path to
	// protect (srs.Layout.WarmParityDelta).
	return &Encoder{k: k, m: m, h: buildCodingMatrix(k, m)}, nil
}

// buildCodingMatrix produces H = [I; G] with the property that any k
// rows are linearly independent, which holds exactly when every square
// submatrix of G is nonsingular. G is a Cauchy matrix
// (G[i][j] = 1/(x_i + y_j) with all x_i, y_j distinct), which has that
// property, normalized by column scaling (which preserves it) so that
// the first parity row is all ones. The all-ones first row makes the
// m=1 codes pure XOR, matching Eqn. (4) of the paper
// (P1 = D1 ^ D2 ^ ...) and the generator convention g_1j = j^0 = 1 of
// the Vandermonde description in Section 3.2.
func buildCodingMatrix(k, m int) Matrix {
	h := NewMatrix(k+m, k)
	for i := 0; i < k; i++ {
		h[i][i] = 1
	}
	if m == 0 {
		return h
	}
	// Cauchy points: x_i = i for parity rows, y_j = m+j for data
	// columns. All 2^8 field elements are distinct integers, so
	// x_i ^ y_j != 0 as long as i != m+j, which holds by construction
	// for k+m <= 256.
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			h[k+i][j] = gf.Inv(byte(i) ^ byte(m+j))
		}
	}
	// Scale each column so row k (the first parity row) is all ones.
	for j := 0; j < k; j++ {
		c := gf.Inv(h[k][j])
		for i := 0; i < m; i++ {
			h[k+i][j] = gf.Mul(h[k+i][j], c)
		}
	}
	return h
}

// CodingMatrix returns a copy of H = [I; G].
func (e *Encoder) CodingMatrix() Matrix { return e.h.Clone() }

// GeneratorRow returns a copy of row j (0-based) of the generator
// matrix G, i.e. the coefficients applied to the k data shards to form
// parity shard j.
func (e *Encoder) GeneratorRow(j int) []byte {
	if j < 0 || j >= e.m {
		panic(fmt.Sprintf("rs: parity row %d out of range [0,%d)", j, e.m))
	}
	return append([]byte(nil), e.h[e.k+j]...)
}

// Coefficient returns G[parity][data]: the factor multiplying data
// shard `data` in parity shard `parity`. This single byte is what the
// delta update rule P' = P XOR g*delta needs.
func (e *Encoder) Coefficient(parity, data int) byte {
	if parity < 0 || parity >= e.m {
		panic(fmt.Sprintf("rs: parity index %d out of range [0,%d)", parity, e.m))
	}
	if data < 0 || data >= e.k {
		panic(fmt.Sprintf("rs: data index %d out of range [0,%d)", data, e.k))
	}
	return e.h[e.k+parity][data]
}

func checkShardSizes(shards [][]byte) (int, error) {
	size := -1
	for _, s := range shards {
		if s == nil {
			continue
		}
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return 0, ErrShardSize
		}
	}
	if size < 0 {
		return 0, ErrShardSize
	}
	return size, nil
}

// Encode computes the m parity shards for the given k data shards.
// All data shards must be non-nil and equally sized. The returned
// parity shards have the same size.
func (e *Encoder) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != e.k {
		return nil, fmt.Errorf("%w: got %d data shards, want %d", ErrShardCount, len(data), e.k)
	}
	size, err := checkShardSizes(data)
	if err != nil {
		return nil, err
	}
	for _, s := range data {
		if s == nil {
			return nil, fmt.Errorf("%w: nil data shard", ErrShardSize)
		}
	}
	parity := make([][]byte, e.m)
	for j := 0; j < e.m; j++ {
		p := make([]byte, size)
		row := e.h[e.k+j]
		// First shard multiplies straight into p (it is fresh zeros);
		// the rest accumulate.
		gf.MulSlice(row[0], data[0], p)
		for i := 1; i < len(data); i++ {
			gf.MulSliceXor(row[i], data[i], p)
		}
		parity[j] = p
	}
	return parity, nil
}

// EncodeInto is like Encode but writes into caller-provided parity
// buffers, which must be m equally sized slices matching the data
// shard size. It avoids allocation in hot paths.
func (e *Encoder) EncodeInto(data, parity [][]byte) error {
	if len(data) != e.k || len(parity) != e.m {
		return ErrShardCount
	}
	size, err := checkShardSizes(data)
	if err != nil {
		return err
	}
	for j, p := range parity {
		if len(p) != size {
			return ErrShardSize
		}
		row := e.h[e.k+j]
		// The first multiply overwrites p, so no zeroing pass is
		// needed before the accumulating XORs.
		gf.MulSlice(row[0], data[0], p)
		for i := 1; i < len(data); i++ {
			gf.MulSliceXor(row[i], data[i], p)
		}
	}
	return nil
}

// ParityDelta computes, for every parity shard, the delta to XOR into
// it when data shard dataIdx changes by `delta` (delta = old XOR new).
// This implements the paper's update rule: the parity node XORs the
// stored parity with the update multiplied by the matrix coefficient.
func (e *Encoder) ParityDelta(dataIdx int, delta []byte) [][]byte {
	out := make([][]byte, e.m)
	for j := 0; j < e.m; j++ {
		d := make([]byte, len(delta))
		gf.MulSlice(e.Coefficient(j, dataIdx), delta, d)
		out[j] = d
	}
	return out
}

// Verify recomputes parity from the data shards and reports whether it
// matches the provided parity shards.
func (e *Encoder) Verify(shards [][]byte) (bool, error) {
	if len(shards) != e.k+e.m {
		return false, ErrShardCount
	}
	parity, err := e.Encode(shards[:e.k])
	if err != nil {
		return false, err
	}
	for j, p := range parity {
		got := shards[e.k+j]
		if len(got) != len(p) {
			return false, nil
		}
		for i := range p {
			if p[i] != got[i] {
				return false, nil
			}
		}
	}
	return true, nil
}

// Reconstruct fills in the nil entries of shards (length k+m, data
// shards first) from any k surviving shards. Surviving shards are left
// untouched; missing ones are allocated and recomputed.
//
// Recovery follows the paper: choose k linearly independent surviving
// rows of H, invert them to get a decoding matrix, and multiply the
// surviving shards by the rows corresponding to the missing data
// blocks. Missing parity is then re-encoded from the recovered data.
func (e *Encoder) Reconstruct(shards [][]byte) error {
	if len(shards) != e.k+e.m {
		return ErrShardCount
	}
	present := make([]int, 0, e.k)
	for i, s := range shards {
		if s != nil {
			present = append(present, i)
		}
	}
	if len(present) < e.k {
		return fmt.Errorf("%w: %d of %d present, need %d", ErrTooFewShards, len(present), e.k+e.m, e.k)
	}
	size, err := checkShardSizes(shards)
	if err != nil {
		return err
	}

	allDataPresent := true
	for i := 0; i < e.k; i++ {
		if shards[i] == nil {
			allDataPresent = false
			break
		}
	}

	if !allDataPresent {
		// Build the decoding matrix from the first k surviving rows.
		// Any k rows of H are independent (MDS), so the first k work.
		rows := present[:e.k]
		sub := e.h.PickRows(rows)
		dec, err := sub.Invert()
		if err != nil {
			return fmt.Errorf("rs: decode submatrix singular: %w", err)
		}
		inputs := make([][]byte, e.k)
		for i, r := range rows {
			inputs[i] = shards[r]
		}
		for i := 0; i < e.k; i++ {
			if shards[i] != nil {
				continue
			}
			out := make([]byte, size)
			gf.MulSlice(dec[i][0], inputs[0], out)
			for c := 1; c < len(inputs); c++ {
				gf.MulSliceXor(dec[i][c], inputs[c], out)
			}
			shards[i] = out
		}
	}

	// Recompute any missing parity directly from the (now complete)
	// data shards; this is identical to encoding.
	for j := 0; j < e.m; j++ {
		if shards[e.k+j] != nil {
			continue
		}
		out := make([]byte, size)
		row := e.h[e.k+j]
		gf.MulSlice(row[0], shards[0], out)
		for i := 1; i < e.k; i++ {
			gf.MulSliceXor(row[i], shards[i], out)
		}
		shards[e.k+j] = out
	}
	return nil
}

// ReconstructShard recovers a single missing shard (by index, data
// shards first) from the provided surviving shards map and returns it.
// It is the building block of the on-demand block recovery path, where
// a parity node gathers any k blocks of the stripe and decodes exactly
// one block.
func (e *Encoder) ReconstructShard(idx int, survivors map[int][]byte) ([]byte, error) {
	if idx < 0 || idx >= e.k+e.m {
		return nil, fmt.Errorf("rs: shard index %d out of range", idx)
	}
	if len(survivors) < e.k {
		return nil, fmt.Errorf("%w: %d survivors, need %d", ErrTooFewShards, len(survivors), e.k)
	}
	shards := make([][]byte, e.k+e.m)
	n := 0
	for i, s := range survivors {
		if i < 0 || i >= e.k+e.m || i == idx {
			continue
		}
		if n == e.k {
			break
		}
		shards[i] = s
		n++
	}
	if err := e.Reconstruct(shards); err != nil {
		return nil, err
	}
	return shards[idx], nil
}

// SplitJoin helpers ---------------------------------------------------

// Split divides data into k equally sized shards, zero-padding the
// tail. The shard size is ceil(len(data)/k).
func (e *Encoder) Split(data []byte) [][]byte {
	shardSize := (len(data) + e.k - 1) / e.k
	if shardSize == 0 {
		shardSize = 1
	}
	shards := make([][]byte, e.k)
	for i := range shards {
		shards[i] = make([]byte, shardSize)
		lo := i * shardSize
		if lo < len(data) {
			hi := lo + shardSize
			if hi > len(data) {
				hi = len(data)
			}
			copy(shards[i], data[lo:hi])
		}
	}
	return shards
}

// Join concatenates the k data shards and truncates to size bytes,
// reversing Split.
func (e *Encoder) Join(shards [][]byte, size int) ([]byte, error) {
	if len(shards) < e.k {
		return nil, ErrShardCount
	}
	out := make([]byte, 0, size)
	for i := 0; i < e.k && len(out) < size; i++ {
		if shards[i] == nil {
			return nil, fmt.Errorf("rs: data shard %d missing in Join", i)
		}
		out = append(out, shards[i]...)
	}
	if len(out) < size {
		return nil, fmt.Errorf("rs: joined %d bytes, want %d", len(out), size)
	}
	return out[:size], nil
}
