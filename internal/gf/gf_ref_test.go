package gf

// The byte-at-a-time kernels the word-wide versions in gf.go replaced:
// the ground truth for the differential and fuzz tests in
// gf_diff_test.go, and the baseline its benchmarks pair each kernel
// with.

// mulSliceRef is the byte-wise reference for MulSlice.
func mulSliceRef(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panicLen("mulSliceRef", len(src), len(dst))
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
	t := MulTable(c)
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i] = t[src[i]]
		dst[i+1] = t[src[i+1]]
		dst[i+2] = t[src[i+2]]
		dst[i+3] = t[src[i+3]]
		dst[i+4] = t[src[i+4]]
		dst[i+5] = t[src[i+5]]
		dst[i+6] = t[src[i+6]]
		dst[i+7] = t[src[i+7]]
	}
	for ; i < n; i++ {
		dst[i] = t[src[i]]
	}
}

// mulSliceXorRef is the byte-wise reference for MulSliceXor.
func mulSliceXorRef(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panicLen("mulSliceXorRef", len(src), len(dst))
	}
	if c == 0 {
		return
	}
	if c == 1 {
		xorSliceRef(src, dst)
		return
	}
	t := MulTable(c)
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i] ^= t[src[i]]
		dst[i+1] ^= t[src[i+1]]
		dst[i+2] ^= t[src[i+2]]
		dst[i+3] ^= t[src[i+3]]
		dst[i+4] ^= t[src[i+4]]
		dst[i+5] ^= t[src[i+5]]
		dst[i+6] ^= t[src[i+6]]
		dst[i+7] ^= t[src[i+7]]
	}
	for ; i < n; i++ {
		dst[i] ^= t[src[i]]
	}
}

// xorSliceRef is the byte-wise reference for XorSlice.
func xorSliceRef(src, dst []byte) {
	if len(src) != len(dst) {
		panicLen("xorSliceRef", len(src), len(dst))
	}
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i] ^= src[i]
		dst[i+1] ^= src[i+1]
		dst[i+2] ^= src[i+2]
		dst[i+3] ^= src[i+3]
		dst[i+4] ^= src[i+4]
		dst[i+5] ^= src[i+5]
		dst[i+6] ^= src[i+6]
		dst[i+7] ^= src[i+7]
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}
