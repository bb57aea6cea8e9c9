package gf

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestKernelDifferential pins both multiply kernels bit-exact against
// the byte-wise references for every coefficient, at every length up to
// 100 (sub-word, word, the 32-byte stride and its tails), 1 KiB and
// 16 KiB + 7, with the source starting 0-31 bytes into its buffer and
// the destination at another offset.
func TestKernelDifferential(t *testing.T) {
	var lengths []int
	for n := 0; n <= 100; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1<<10, 16<<10+7)
	rng := rand.New(rand.NewSource(11))
	keepKernel(t)
	for _, n := range lengths {
		for a := 0; a < 32; a++ {
			// The long inputs take every eighth offset: the kernels'
			// loops are the same at each, and the short ones cover all.
			if n > 100 && a%8 != 1 {
				continue
			}
			src := randBytes(rng, a+n)[a:]
			b := (a * 7) % 32
			base := randBytes(rng, b+n)[b:]
			want := make([]byte, n)
			got := make([]byte, b+n)[b:]
			for c := 0; c < 256; c++ {
				cb := byte(c)
				mulSliceRef(cb, src, want)
				for _, k := range hostKernels() {
					useAVX2 = k.avx2
					MulSlice(cb, src, got)
					if !bytes.Equal(want, got) {
						t.Fatalf("%s MulSlice c=%d n=%d offset=%d diverges from reference", k.name, c, n, a)
					}
				}
				copy(want, base)
				mulSliceXorRef(cb, src, want)
				for _, k := range hostKernels() {
					useAVX2 = k.avx2
					copy(got, base)
					MulSliceXor(cb, src, got)
					if !bytes.Equal(want, got) {
						t.Fatalf("%s MulSliceXor c=%d n=%d offset=%d diverges from reference", k.name, c, n, a)
					}
				}
			}
			copy(want, base)
			copy(got, base)
			xorSliceRef(src, want)
			XorSlice(src, got)
			if !bytes.Equal(want, got) {
				t.Fatalf("XorSlice n=%d offset=%d diverges from reference", n, a)
			}
		}
	}
}

// TestKernelInPlace pins the aliasing contract on both kernels: dst ==
// src is the common shape of in-place scaling during matrix inversion.
func TestKernelInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	forEachKernel(t, func(t *testing.T) {
		for _, n := range []int{1, 31, 32, 100, 4096, 16<<10 + 7} {
			orig := randBytes(rng, n)
			for _, c := range []byte{0, 1, 2, 0x8e, 0xff} {
				want := make([]byte, n)
				mulSliceRef(c, orig, want)
				got := append([]byte(nil), orig...)
				MulSlice(c, got, got)
				if !bytes.Equal(want, got) {
					t.Fatalf("in-place MulSlice c=%d n=%d diverges", c, n)
				}
				want = append(want[:0], orig...)
				mulSliceXorRef(c, orig, want)
				got = append(got[:0], orig...)
				MulSliceXor(c, got, got)
				if !bytes.Equal(want, got) {
					t.Fatalf("in-place MulSliceXor c=%d n=%d diverges", c, n)
				}
			}
		}
	})
}

// FuzzGFKernels cross-checks both multiply kernels against the
// byte-wise references on fuzzer-chosen coefficients, lengths, and
// offsets (ci.sh runs this as a 10s smoke).
func FuzzGFKernels(f *testing.F) {
	f.Add(byte(0), uint8(0), []byte{})
	f.Add(byte(1), uint8(1), []byte("0123456789abcdef0123456789abcdef0123456789abcdef"))
	f.Add(byte(2), uint8(3), []byte("parity"))
	f.Add(byte(0x8e), uint8(7), bytes.Repeat([]byte{0xa5, 0x17}, 64))
	f.Add(byte(0xe3), uint8(31), bytes.Repeat([]byte{0x0f, 0xf0, 0x80, 0x01}, 300))
	f.Fuzz(func(t *testing.T, c byte, align uint8, data []byte) {
		off := int(align % 32)
		if off > len(data) {
			off = len(data)
		}
		src := data[off:]
		n := len(src)
		base := make([]byte, n)
		for i := range base {
			base[i] = byte(i*131 + 17)
		}
		wantMul := make([]byte, n)
		mulSliceRef(c, src, wantMul)
		wantXor := append([]byte(nil), base...)
		mulSliceXorRef(c, src, wantXor)

		keepKernel(t)
		for _, k := range hostKernels() {
			useAVX2 = k.avx2
			got := make([]byte, n)
			MulSlice(c, src, got)
			if !bytes.Equal(wantMul, got) {
				t.Fatalf("%s MulSlice c=%d n=%d off=%d diverges from reference", k.name, c, n, off)
			}
			copy(got, base)
			MulSliceXor(c, src, got)
			if !bytes.Equal(wantXor, got) {
				t.Fatalf("%s MulSliceXor c=%d n=%d off=%d diverges from reference", k.name, c, n, off)
			}
			// Field identity on top of the differential check: applying
			// c then c^-1 must restore the input (for invertible c).
			if c > 1 && n > 0 {
				MulSlice(c, src, got)
				MulSlice(Inv(c), got, got)
				if !bytes.Equal(got, src) {
					t.Fatalf("%s c * c^-1 != identity for c=%d n=%d", k.name, c, n)
				}
			}
		}

		want := append([]byte(nil), base...)
		got := append([]byte(nil), base...)
		xorSliceRef(src, want)
		XorSlice(src, got)
		if !bytes.Equal(want, got) {
			t.Fatalf("XorSlice n=%d off=%d diverges from reference", n, off)
		}
	})
}

// The benchmarks below run each of ks and the byte-wise baseline they
// must beat: <kernel>/split and <kernel>/avx2 (the kernels this host has)
// against <kernel>/ref.

func benchPair(b *testing.B, n int, ks []kernel, kernel, ref func(src, dst []byte)) {
	src := make([]byte, n)
	dst := make([]byte, n)
	rand.New(rand.NewSource(13)).Read(src)
	keepKernel(b)
	for _, k := range ks {
		b.Run(k.name, func(b *testing.B) {
			useAVX2 = k.avx2
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				kernel(src, dst)
			}
		})
	}
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			ref(src, dst)
		}
	})
}

func BenchmarkMulSlice4KiB(b *testing.B) {
	benchPair(b, 4096, hostKernels(),
		func(s, d []byte) { MulSlice(0x57, s, d) },
		func(s, d []byte) { mulSliceRef(0x57, s, d) })
}

func BenchmarkMulSliceXor4KiB(b *testing.B) {
	benchPair(b, 4096, hostKernels(),
		func(s, d []byte) { MulSliceXor(0x57, s, d) },
		func(s, d []byte) { mulSliceXorRef(0x57, s, d) })
}

func BenchmarkMulSliceXor16KiB(b *testing.B) {
	benchPair(b, 16<<10, hostKernels(),
		func(s, d []byte) { MulSliceXor(0x57, s, d) },
		func(s, d []byte) { mulSliceXorRef(0x57, s, d) })
}

func BenchmarkXorSlice4KiB(b *testing.B) {
	// One kernel whichever useAVX2 says: subtle.XORBytes.
	benchPair(b, 4096, []kernel{{name: "word"}}, XorSlice, xorSliceRef)
}
