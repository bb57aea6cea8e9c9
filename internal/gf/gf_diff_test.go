package gf

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestKernelDifferential pins the word-wide kernels bit-exact against
// the byte-wise references across lengths around every boundary the
// word loop cares about (sub-word, word, 32-byte unroll block), odd
// alignments within a backing array, and every coefficient.
func TestKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 1000, 4096}
	aligns := []int{0, 1, 3, 7}
	for _, n := range lengths {
		for _, a := range aligns {
			backing := randBytes(rng, n+a)
			src := backing[a : a+n]
			base := randBytes(rng, n)
			for c := 0; c < 256; c++ {
				cb := byte(c)
				want := make([]byte, n)
				got := make([]byte, n)
				mulSliceRef(cb, src, want)
				MulSlice(cb, src, got)
				if !bytes.Equal(want, got) {
					t.Fatalf("MulSlice c=%d n=%d align=%d diverges from reference", c, n, a)
				}
				copy(want, base)
				copy(got, base)
				mulSliceXorRef(cb, src, want)
				MulSliceXor(cb, src, got)
				if !bytes.Equal(want, got) {
					t.Fatalf("MulSliceXor c=%d n=%d align=%d diverges from reference", c, n, a)
				}
			}
			want := append([]byte(nil), base...)
			got := append([]byte(nil), base...)
			xorSliceRef(src, want)
			XorSlice(src, got)
			if !bytes.Equal(want, got) {
				t.Fatalf("XorSlice n=%d align=%d diverges from reference", n, a)
			}
		}
	}
}

// TestKernelInPlace pins the aliasing contract: dst == src is the
// common shape of in-place scaling during matrix inversion.
func TestKernelInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 31, 32, 100, 4096} {
		orig := randBytes(rng, n)
		for _, c := range []byte{0, 1, 2, 0x8e, 0xff} {
			want := make([]byte, n)
			mulSliceRef(c, orig, want)
			got := append([]byte(nil), orig...)
			MulSlice(c, got, got)
			if !bytes.Equal(want, got) {
				t.Fatalf("in-place MulSlice c=%d n=%d diverges", c, n)
			}
		}
	}
}

// FuzzGFKernels cross-checks the word-wide kernels against the
// byte-wise references on fuzzer-chosen coefficients, lengths, and
// alignments (ci.sh runs this as a 10s smoke).
func FuzzGFKernels(f *testing.F) {
	f.Add(byte(0), uint8(0), []byte{})
	f.Add(byte(1), uint8(1), []byte("0123456789abcdef0123456789abcdef0123456789abcdef"))
	f.Add(byte(2), uint8(3), []byte("parity"))
	f.Add(byte(0x8e), uint8(7), bytes.Repeat([]byte{0xa5, 0x17}, 64))
	f.Fuzz(func(t *testing.T, c byte, align uint8, data []byte) {
		off := int(align % 8)
		if off > len(data) {
			off = len(data)
		}
		src := data[off:]
		n := len(src)
		base := make([]byte, n)
		for i := range base {
			base[i] = byte(i*131 + 17)
		}

		want := make([]byte, n)
		got := make([]byte, n)
		mulSliceRef(c, src, want)
		MulSlice(c, src, got)
		if !bytes.Equal(want, got) {
			t.Fatalf("MulSlice c=%d n=%d off=%d diverges from reference", c, n, off)
		}

		copy(want, base)
		copy(got, base)
		mulSliceXorRef(c, src, want)
		MulSliceXor(c, src, got)
		if !bytes.Equal(want, got) {
			t.Fatalf("MulSliceXor c=%d n=%d off=%d diverges from reference", c, n, off)
		}

		copy(want, base)
		copy(got, base)
		xorSliceRef(src, want)
		XorSlice(src, got)
		if !bytes.Equal(want, got) {
			t.Fatalf("XorSlice n=%d off=%d diverges from reference", n, off)
		}

		// Field identity on top of the differential check: applying c
		// then c^-1 must restore the input (for invertible c).
		if c > 1 && n > 0 {
			inv := Inv(c)
			tmp := make([]byte, n)
			MulSlice(c, src, tmp)
			MulSlice(inv, tmp, tmp)
			if !bytes.Equal(tmp, src) {
				t.Fatalf("c * c^-1 != identity for c=%d n=%d", c, n)
			}
		}
	})
}

// The 4 KiB benchmark pairs below are the before/after of the
// word-wide kernels: <kernel> is the word-wide implementation,
// <kernel>Ref the byte-wise baseline it must beat.

func benchPair(b *testing.B, n int, word, ref func(src, dst []byte)) {
	src := make([]byte, n)
	dst := make([]byte, n)
	rand.New(rand.NewSource(13)).Read(src)
	b.Run("word", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			word(src, dst)
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			ref(src, dst)
		}
	})
}

func BenchmarkMulSlice4KiB(b *testing.B) {
	benchPair(b, 4096,
		func(s, d []byte) { MulSlice(0x57, s, d) },
		func(s, d []byte) { mulSliceRef(0x57, s, d) })
}

func BenchmarkMulSliceXor4KiB(b *testing.B) {
	benchPair(b, 4096,
		func(s, d []byte) { MulSliceXor(0x57, s, d) },
		func(s, d []byte) { mulSliceXorRef(0x57, s, d) })
}

func BenchmarkXorSlice4KiB(b *testing.B) {
	benchPair(b, 4096, XorSlice, xorSliceRef)
}
