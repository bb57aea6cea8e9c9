package gf

import "testing"

// kernel is one of the two multiply kernels MulSlice and MulSliceXor
// run: the portable split-table one, or the AVX2 nibble-table one.
type kernel struct {
	name string
	avx2 bool
}

// hostKernels lists the kernels this host can run: the split-table one
// everywhere, the AVX2 one where CPUID reports it.
func hostKernels() []kernel {
	ks := []kernel{{"split", false}}
	if hasAVX2 {
		ks = append(ks, kernel{"avx2", true})
	}
	return ks
}

// keepKernel restores the kernel the package chose when tb ends, so the
// test may switch useAVX2 between kernels as it goes.
func keepKernel(tb testing.TB) {
	saved := useAVX2
	tb.Cleanup(func() { useAVX2 = saved })
}

// forEachKernel runs f as a subtest on each kernel this host can run.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	keepKernel(t)
	for _, k := range hostKernels() {
		useAVX2 = k.avx2
		t.Run(k.name, f)
	}
}
