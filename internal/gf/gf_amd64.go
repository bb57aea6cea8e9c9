package gf

// hasAVX2 says whether this CPU and OS run the AVX2 kernels in
// gf_amd64.s: CPUID reports AVX2, and OSXSAVE with XCR0 enabling XMM
// and YMM state says the OS saves the registers they use.
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM (bit 1) and YMM (bit 2) state
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

//go:noescape
func mulAVX2(tbl *[32]byte, src, dst []byte)

//go:noescape
func mulXorAVX2(tbl *[32]byte, src, dst []byte)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (a, d uint32)
