// Package gf implements arithmetic over the Galois field GF(2^8).
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by the
// Jerasure/GF-Complete stack the paper builds on. Addition is XOR;
// multiplication and division are driven by logarithm/antilogarithm
// tables built once at package initialization, 1 KiB in all.
//
// Besides scalar operations the package provides slice kernels
// (MulSlice, MulSliceXor, XorSlice) that apply one coefficient to a
// whole buffer. These are the inner loops of Reed-Solomon encoding,
// decoding, and delta parity updates. On an amd64 CPU with AVX2 they
// are GF-Complete's region multiply: for every 32 bytes, VPSHUFB looks
// the low and high nibbles up in two 16-entry tables of the
// coefficient's products, c*x and c*(x<<4), and XORs the two halves
// (gf_amd64.s). The 256 coefficients' tables take 8 KiB, built at
// package initialization. The kernel is chosen once from CPUID.
// Every other host runs the portable kernel, eight bytes per 64-bit
// word: each word is split into four 16-bit halves and mapped through
// a per-coefficient 65536-entry product table whose entries are the
// pairwise products of both bytes, the split-table scheme widened from
// nibbles to bytes. That table is 128 KiB, built on the first use of
// its coefficient (a process holds none for a coefficient it never
// multiplies by), and its first 256 entries are the products c*x, so
// the tail of a buffer shorter than the 32-byte stride is mapped
// through the same table a byte at a time; the AVX2 kernel's tail reads
// its nibble tables the same way. XorSlice
// (multiplication by one, the first parity row of our Cauchy matrices)
// defers to crypto/subtle.XORBytes, which the runtime implements with
// the platform's vector ISA. The byte-at-a-time kernels they replaced live
// on in gf_ref_test.go as the oracle the differential and fuzz tests
// pin both kernels bit-exact against.
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
	// invTbl[x] = x^-1; invTbl[0] unused.
	invTbl [256]byte
	// wordTbl[c] is the 65536-entry split product table for the
	// word-wide kernels: entry i is the product of c with both bytes
	// of i, packed in the same byte order (see wordTable), so entry
	// x < 256 is c*x and the byte-wise tails read it too. Each table
	// is 128 KiB, so rows are built lazily on first use of the
	// coefficient and published with an atomic CAS; an RS(k,m) code
	// touches only the coefficients of its coding matrix.
	wordTbl [256]atomic.Pointer[[1 << 16]uint16]
	// nibbleTbl[c] is the AVX2 kernel's table for coefficient c: entry
	// x < 16 is c*x and entry 16+x is c*(x<<4), so a byte b maps to
	// nibbleTbl[c][b&15] ^ nibbleTbl[c][16+b>>4]. Built at init on a
	// host that runs that kernel, left zero on any other.
	nibbleTbl [256][32]byte
)

// useAVX2 selects the nibble-table kernel of gf_amd64.s for MulSlice
// and MulSliceXor. It is read from CPUID once; only tests change it.
var useAVX2 = hasAVX2

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
	if hasAVX2 {
		for c := range nibbleTbl {
			for x := 0; x < 16; x++ {
				nibbleTbl[c][x] = Mul(byte(c), byte(x))
				nibbleTbl[c][16+x] = Mul(byte(c), byte(x<<4))
			}
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
	var row [256]uint16
	for x := range row {
		row[x] = uint16(Mul(c, byte(x)))
	}
	t := new([1 << 16]uint16)
	for i := range t {
		t[i] = row[i&0xff] | row[i>>8]<<8
	}
	if wordTbl[c].CompareAndSwap(nil, t) {
		WordTablesBuilt.Inc()
	}
	return wordTbl[c].Load()
}

// WordTablesBuilt counts the split product tables this process holds,
// 128 KiB each (gf.word_tables_built in /debug/ringvars): a node that
// never multiplies — a replica, a parity node, which only XORs — builds
// none, and neither does any node on a host with AVX2.
var WordTablesBuilt metrics.Counter

func init() {
	metrics.Default.Register("gf.word_tables_built", &WordTablesBuilt)
}

// SplitTables reports whether MulSlice and MulSliceXor multiply through
// the 128 KiB split product tables, as every host without AVX2 does,
// rather than through the AVX2 kernel's nibble tables.
func SplitTables() bool { return !useAVX2 }

// WarmTables pre-builds the split product tables for the given
// coefficients. A node that is about to multiply by them on its commit
// path calls it when it learns its role, so that no put pays a 128 KiB
// table build; everything else builds on first use. With the AVX2
// kernel there is nothing to build.
func WarmTables(coeffs ...byte) {
	if useAVX2 {
		return
	}
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
	if useAVX2 {
		t := &nibbleTbl[c]
		n := len(src) &^ 31
		mulAVX2(t, src[:n], dst[:n])
		for i, b := range src[n:] {
			dst[n+i] = t[b&15] ^ t[16+b>>4]
		}
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
	for i := range src {
		dst[i] = byte(t[src[i]])
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
	if useAVX2 {
		t := &nibbleTbl[c]
		n := len(src) &^ 31
		mulXorAVX2(t, src[:n], dst[:n])
		for i, b := range src[n:] {
			dst[n+i] ^= t[b&15] ^ t[16+b>>4]
		}
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
	for i := range src {
		dst[i] ^= byte(t[src[i]])
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
