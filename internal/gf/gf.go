// Package gf implements arithmetic over the Galois field GF(2^8).
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by the
// Jerasure/GF-Complete stack the paper builds on. Addition is XOR;
// multiplication and division are driven by logarithm/antilogarithm
// tables built once at package initialization.
//
// Besides scalar operations the package provides slice kernels
// (MulSlice, MulSliceXor, XorSlice) that apply one coefficient to a
// whole buffer. These are the inner loops of Reed-Solomon encoding,
// decoding, and delta parity updates, so they process eight bytes per
// 64-bit word: each word is split into four 16-bit halves and mapped
// through a per-coefficient 65536-entry product table whose entries
// are the pairwise products of both bytes — the split-table scheme of
// GF-Complete's region operations, widened from nibbles to bytes
// because scalar Go has no PSHUFB. XorSlice (multiplication by one,
// the first parity row of our Cauchy matrices) defers to
// crypto/subtle.XORBytes, which the runtime implements with the
// platform's vector ISA. The byte-at-a-time kernels they replaced live
// on in gf_ref_test.go as the oracle the differential and fuzz tests
// pin bit-exactness against.
package gf

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"ring/internal/metrics"
)

// Poly is the primitive polynomial defining the field, with the x^8
// term included (0x11d = x^8+x^4+x^3+x^2+1).
const Poly = 0x11d

// Order is the number of elements in the field.
const Order = 256

var (
	// expTbl[i] = g^i where g=2 is a generator. Doubled in length so
	// Mul can add logs without reducing mod 255.
	expTbl [2 * 255]byte
	// logTbl[x] = log_g(x); logTbl[0] is unused (log of zero is
	// undefined) and left as 0.
	logTbl [256]byte
	// mulTbl[c] is the 256-entry row of products c*x for every x.
	// All 256 rows (64 KiB) are materialized eagerly in init so
	// MulTable is a branch-free lookup that is safe to call from
	// concurrent encode/recovery goroutines.
	mulTbl [256][256]byte
	// invTbl[x] = x^-1; invTbl[0] unused.
	invTbl [256]byte
	// wordTbl[c] is the 65536-entry split product table for the
	// word-wide kernels: entry i is the product of c with both bytes
	// of i, packed in the same byte order (see wordTable). Each table
	// is 128 KiB, so rows are built lazily on first use of the
	// coefficient and published with an atomic CAS; an RS(k,m) code
	// touches only the coefficients of its coding matrix.
	wordTbl [256]atomic.Pointer[[1 << 16]uint16]
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTbl[i] = byte(x)
		expTbl[i+255] = byte(x)
		logTbl[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	for i := 1; i < 256; i++ {
		invTbl[i] = Exp(255 - int(logTbl[i]))
	}
	for c := 0; c < 256; c++ {
		for x := 0; x < 256; x++ {
			mulTbl[c][x] = Mul(byte(c), byte(x))
		}
	}
}

// Add returns a+b in GF(2^8). Addition and subtraction coincide.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a-b in GF(2^8); identical to Add.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTbl[int(logTbl[a])+int(logTbl[b])]
}

// Div returns a/b in GF(2^8). It panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(logTbl[a]) - int(logTbl[b])
	if d < 0 {
		d += 255
	}
	return expTbl[d]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return invTbl[a]
}

// Exp returns g^n for the generator g=2. Negative n is reduced modulo
// 255 into the principal range.
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return expTbl[n]
}

// Log returns log_g(a). It panics if a is zero.
func Log(a byte) int {
	if a == 0 {
		panic("gf: log of zero")
	}
	return int(logTbl[a])
}

// Pow returns a^n.
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return Exp(Log(a) * n % 255)
}

// MulTable returns the 256-entry product row for coefficient c:
// row[x] == Mul(c, x). The returned array is shared and must not be
// modified. Rows are precomputed at package init, so the call is a
// data-race-free constant-time lookup.
func MulTable(c byte) *[256]byte {
	return &mulTbl[c]
}

// wordTable returns the split product table for coefficient c,
// building and publishing it on first use. Multiplication in GF(2^8)
// is byte-local, so applying the table to a 16-bit lane multiplies
// both bytes at once; four lane lookups cover a 64-bit word.
func wordTable(c byte) *[1 << 16]uint16 {
	if t := wordTbl[c].Load(); t != nil {
		return t
	}
	return buildWordTable(c)
}

// buildWordTable materializes wordTbl[c]. Concurrent builders race
// benignly: the CAS keeps the first published table, and every build
// produces identical contents.
func buildWordTable(c byte) *[1 << 16]uint16 {
	t := new([1 << 16]uint16)
	row := &mulTbl[c]
	for i := range t {
		t[i] = uint16(row[i&0xff]) | uint16(row[i>>8])<<8
	}
	if wordTbl[c].CompareAndSwap(nil, t) {
		WordTablesBuilt.Inc()
	}
	return wordTbl[c].Load()
}

// WordTablesBuilt counts the split product tables this process holds,
// 128 KiB each (gf.word_tables_built in /debug/ringvars): a node that
// never multiplies — a replica, a parity node, which only XORs — builds
// none.
var WordTablesBuilt metrics.Counter

func init() {
	metrics.Default.Register("gf.word_tables_built", &WordTablesBuilt)
}

// WarmTables pre-builds the split product tables for the given
// coefficients. A node that is about to multiply by them on its commit
// path calls it when it learns its role, so that no put pays a 128 KiB
// table build; everything else builds on first use.
func WarmTables(coeffs ...byte) {
	for _, c := range coeffs {
		if c > 1 {
			wordTable(c)
		}
	}
}

func panicLen(kernel string, ns, nd int) {
	panic(fmt.Sprintf("gf: %s length mismatch %d != %d", kernel, ns, nd))
}

// MulSlice sets dst[i] = c*src[i] for all i. dst and src must have the
// same length (it panics otherwise). c==0 zeroes dst; c==1 copies.
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panicLen("MulSlice", len(src), len(dst))
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
		return
	case 1:
		copy(dst, src)
		return
	}
	t := wordTable(c)
	// Slice-advance main loop: re-slicing by a constant after the
	// length guard lets the compiler drop every bounds check in the
	// 32-byte body (an indexed loop would re-check per load).
	for len(src) >= 32 && len(dst) >= 32 {
		w0 := binary.LittleEndian.Uint64(src[0:8])
		w1 := binary.LittleEndian.Uint64(src[8:16])
		w2 := binary.LittleEndian.Uint64(src[16:24])
		w3 := binary.LittleEndian.Uint64(src[24:32])
		r0 := uint64(t[w0&0xffff]) | uint64(t[w0>>16&0xffff])<<16 |
			uint64(t[w0>>32&0xffff])<<32 | uint64(t[w0>>48])<<48
		r1 := uint64(t[w1&0xffff]) | uint64(t[w1>>16&0xffff])<<16 |
			uint64(t[w1>>32&0xffff])<<32 | uint64(t[w1>>48])<<48
		r2 := uint64(t[w2&0xffff]) | uint64(t[w2>>16&0xffff])<<16 |
			uint64(t[w2>>32&0xffff])<<32 | uint64(t[w2>>48])<<48
		r3 := uint64(t[w3&0xffff]) | uint64(t[w3>>16&0xffff])<<16 |
			uint64(t[w3>>32&0xffff])<<32 | uint64(t[w3>>48])<<48
		binary.LittleEndian.PutUint64(dst[0:8], r0)
		binary.LittleEndian.PutUint64(dst[8:16], r1)
		binary.LittleEndian.PutUint64(dst[16:24], r2)
		binary.LittleEndian.PutUint64(dst[24:32], r3)
		src = src[32:]
		dst = dst[32:]
	}
	row := &mulTbl[c]
	for i := range src {
		dst[i] = row[src[i]]
	}
}

// MulSliceXor sets dst[i] ^= c*src[i] for all i. This is the kernel of
// both parity generation and delta parity updates.
func MulSliceXor(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panicLen("MulSliceXor", len(src), len(dst))
	}
	if c == 0 {
		return
	}
	if c == 1 {
		// The first parity row of our (normalized Cauchy) coding
		// matrices is all ones, so this dispatch routes a full 1/m of
		// parity work through the vectorized XOR.
		XorSlice(src, dst)
		return
	}
	t := wordTable(c)
	for len(src) >= 32 && len(dst) >= 32 {
		w0 := binary.LittleEndian.Uint64(src[0:8])
		w1 := binary.LittleEndian.Uint64(src[8:16])
		w2 := binary.LittleEndian.Uint64(src[16:24])
		w3 := binary.LittleEndian.Uint64(src[24:32])
		r0 := uint64(t[w0&0xffff]) | uint64(t[w0>>16&0xffff])<<16 |
			uint64(t[w0>>32&0xffff])<<32 | uint64(t[w0>>48])<<48
		r1 := uint64(t[w1&0xffff]) | uint64(t[w1>>16&0xffff])<<16 |
			uint64(t[w1>>32&0xffff])<<32 | uint64(t[w1>>48])<<48
		r2 := uint64(t[w2&0xffff]) | uint64(t[w2>>16&0xffff])<<16 |
			uint64(t[w2>>32&0xffff])<<32 | uint64(t[w2>>48])<<48
		r3 := uint64(t[w3&0xffff]) | uint64(t[w3>>16&0xffff])<<16 |
			uint64(t[w3>>32&0xffff])<<32 | uint64(t[w3>>48])<<48
		binary.LittleEndian.PutUint64(dst[0:8], binary.LittleEndian.Uint64(dst[0:8])^r0)
		binary.LittleEndian.PutUint64(dst[8:16], binary.LittleEndian.Uint64(dst[8:16])^r1)
		binary.LittleEndian.PutUint64(dst[16:24], binary.LittleEndian.Uint64(dst[16:24])^r2)
		binary.LittleEndian.PutUint64(dst[24:32], binary.LittleEndian.Uint64(dst[24:32])^r3)
		src = src[32:]
		dst = dst[32:]
	}
	row := &mulTbl[c]
	for i := range src {
		dst[i] ^= row[src[i]]
	}
}

// XorSlice sets dst[i] ^= src[i] for all i (multiplication by 1).
// subtle.XORBytes is the stdlib's vectorized XOR; dst aliasing dst
// exactly is explicitly permitted by its contract.
func XorSlice(src, dst []byte) {
	if len(src) != len(dst) {
		panicLen("XorSlice", len(src), len(dst))
	}
	subtle.XORBytes(dst, dst, src)
}
