package gf

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	if Add(0x53, 0xca) != 0x53^0xca {
		t.Fatalf("Add(0x53,0xca) = %#x", Add(0x53, 0xca))
	}
	if Sub(0x53, 0xca) != Add(0x53, 0xca) {
		t.Fatal("Sub must equal Add in characteristic 2")
	}
}

func TestMulKnownValues(t *testing.T) {
	// Hand-checked products under polynomial 0x11d.
	cases := []struct{ a, b, want byte }{
		{0, 0, 0},
		{0, 7, 0},
		{1, 1, 1},
		{1, 0xff, 0xff},
		{2, 2, 4},
		{2, 0x80, 0x1d}, // 0x100 reduced by 0x11d
		{3, 3, 5},
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x,%#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	for x := 0; x < 256; x++ {
		if Mul(1, byte(x)) != byte(x) {
			t.Fatalf("1*%d != %d", x, x)
		}
		if Mul(0, byte(x)) != 0 {
			t.Fatalf("0*%d != 0", x)
		}
	}
}

func TestInvAndDiv(t *testing.T) {
	for x := 1; x < 256; x++ {
		b := byte(x)
		if Mul(b, Inv(b)) != 1 {
			t.Fatalf("x*Inv(x) != 1 for x=%d", x)
		}
		if Div(b, b) != 1 {
			t.Fatalf("x/x != 1 for x=%d", x)
		}
	}
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Mul(Div(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(5, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestLogZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log(0) did not panic")
		}
	}()
	Log(0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for x := 1; x < 256; x++ {
		if Exp(Log(byte(x))) != byte(x) {
			t.Fatalf("Exp(Log(%d)) != %d", x, x)
		}
	}
	if Exp(-1) != Exp(254) {
		t.Fatal("negative exponent not reduced")
	}
	if Exp(255) != Exp(0) {
		t.Fatal("Exp not periodic with 255")
	}
}

func TestPow(t *testing.T) {
	if Pow(0, 0) != 1 {
		t.Fatal("x^0 must be 1 even for x=0 (empty product convention)")
	}
	if Pow(0, 3) != 0 {
		t.Fatal("0^3 must be 0")
	}
	for x := 1; x < 256; x++ {
		b := byte(x)
		want := byte(1)
		for n := 0; n < 6; n++ {
			if got := Pow(b, n); got != want {
				t.Fatalf("Pow(%d,%d) = %d, want %d", x, n, got, want)
			}
			want = Mul(want, b)
		}
	}
}

func TestGeneratorOrder(t *testing.T) {
	// g=2 must generate all 255 nonzero elements.
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		seen[Exp(i)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator produced %d distinct elements, want 255", len(seen))
	}
}

// TestWordTableMatchesMul: entry i of a coefficient's split table is
// the product with both bytes of i, so entry x < 256 is the product the
// byte-wise tails read.
func TestWordTableMatchesMul(t *testing.T) {
	for _, c := range []byte{0, 1, 2, 3, 0x1d, 0x80, 0xff} {
		tbl := wordTable(c)
		for i := range tbl {
			if want := uint16(Mul(c, byte(i))) | uint16(Mul(c, byte(i>>8)))<<8; tbl[i] != want {
				t.Fatalf("wordTable(%d)[%#x] = %#x, want %#x", c, i, tbl[i], want)
			}
		}
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestMulSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 64, 1000} {
		src := randBytes(rng, n)
		for _, c := range []byte{0, 1, 2, 0xaa} {
			dst := make([]byte, n)
			MulSlice(c, src, dst)
			for i := range src {
				if dst[i] != Mul(c, src[i]) {
					t.Fatalf("MulSlice c=%d n=%d idx=%d", c, n, i)
				}
			}
		}
	}
}

func TestMulSliceXor(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 15, 16, 17, 255} {
		src := randBytes(rng, n)
		base := randBytes(rng, n)
		for _, c := range []byte{0, 1, 3, 0x7f} {
			dst := append([]byte(nil), base...)
			MulSliceXor(c, src, dst)
			for i := range src {
				if dst[i] != base[i]^Mul(c, src[i]) {
					t.Fatalf("MulSliceXor c=%d n=%d idx=%d", c, n, i)
				}
			}
		}
	}
}

func TestXorSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := randBytes(rng, 100)
	base := randBytes(rng, 100)
	dst := append([]byte(nil), base...)
	XorSlice(src, dst)
	for i := range src {
		if dst[i] != base[i]^src[i] {
			t.Fatalf("XorSlice idx=%d", i)
		}
	}
	// XOR twice restores the original.
	XorSlice(src, dst)
	if !bytes.Equal(dst, base) {
		t.Fatal("double XOR did not restore original")
	}
}

func TestSliceLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MulSlice":    func() { MulSlice(2, make([]byte, 3), make([]byte, 4)) },
		"MulSliceXor": func() { MulSliceXor(2, make([]byte, 3), make([]byte, 4)) },
		"XorSlice":    func() { XorSlice(make([]byte, 3), make([]byte, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s length mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMulSliceLinearity(t *testing.T) {
	// c*(a ^ b) == c*a ^ c*b over whole slices.
	rng := rand.New(rand.NewSource(4))
	a := randBytes(rng, 512)
	b := randBytes(rng, 512)
	ab := make([]byte, 512)
	copy(ab, a)
	XorSlice(b, ab)
	for _, c := range []byte{2, 5, 0x8e} {
		lhs := make([]byte, 512)
		MulSlice(c, ab, lhs)
		rhs := make([]byte, 512)
		MulSlice(c, a, rhs)
		MulSliceXor(c, b, rhs)
		if !bytes.Equal(lhs, rhs) {
			t.Fatalf("linearity violated for c=%d", c)
		}
	}
}

func BenchmarkMulSliceXor1KiB(b *testing.B) {
	src := make([]byte, 1024)
	dst := make([]byte, 1024)
	rand.New(rand.NewSource(5)).Read(src)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulSliceXor(0x57, src, dst)
	}
}

func BenchmarkXorSlice1KiB(b *testing.B) {
	src := make([]byte, 1024)
	dst := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		XorSlice(src, dst)
	}
}

func TestMulSliceXorAllocs(t *testing.T) {
	// The GF kernels are the inner loop of encode/recovery: pinned at
	// zero allocations once a coefficient's split product table has
	// been built (the one-time 128 KiB build is warmed up explicitly
	// here; steady-state encode/delta traffic reuses it).
	src := make([]byte, 1024)
	dst := make([]byte, 1024)
	rand.New(rand.NewSource(7)).Read(src)
	for _, c := range []byte{0, 1, 0x57} {
		MulSliceXor(c, src, dst) // warm the lazy word table
		allocs := testing.AllocsPerRun(100, func() {
			MulSliceXor(c, src, dst)
		})
		if allocs != 0 {
			t.Errorf("MulSliceXor(c=%#x): %.1f allocs/op, want 0", c, allocs)
		}
	}
	MulSlice(0x9e, src, dst)
	if allocs := testing.AllocsPerRun(100, func() { MulSlice(0x9e, src, dst) }); allocs != 0 {
		t.Errorf("MulSlice: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { XorSlice(src, dst) }); allocs != 0 {
		t.Errorf("XorSlice: %.1f allocs/op, want 0", allocs)
	}
}

func TestWordTableConcurrent(t *testing.T) {
	// The 128 KiB word tables are built lazily and CAS-published, so
	// concurrent first-touch from parallel encode goroutines must be
	// race-free (run under -race), and a tail shorter than the 32-byte
	// stride, which reads the table's first 256 entries, must see the
	// products whichever goroutine built it.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := []byte{3}
			dst := make([]byte, 1)
			for c := 0; c < 256; c++ {
				MulSlice(byte(c), src, dst)
				if got := dst[0]; got != Mul(byte(c), 3) {
					t.Errorf("row %d wrong", c)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
