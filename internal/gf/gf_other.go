//go:build !amd64

package gf

// Only amd64 has a vector kernel; every other platform runs the
// split-table one.
const hasAVX2 = false

func mulAVX2(tbl *[32]byte, src, dst []byte)    { panic("gf: no AVX2 kernel on this platform") }
func mulXorAVX2(tbl *[32]byte, src, dst []byte) { panic("gf: no AVX2 kernel on this platform") }
