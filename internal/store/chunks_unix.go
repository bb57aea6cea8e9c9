//go:build unix

package store

import (
	"fmt"
	"syscall"
)

// mapAnon returns n zeroed bytes of anonymous memory the collector does
// not manage: no page of it is resident until written. Running out of
// address space is the same event as the Go heap running out of memory,
// and ends the same way.
func mapAnon(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("store: out of memory: mmap of %d bytes: %v", n, err))
	}
	return b
}

// unmapAnon gives a mapAnon mapping back to the system. Only a mapping
// that no chunk was cut from is ever unmapped (see arena.free).
func unmapAnon(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("store: munmap of %d bytes: %v", len(b), err))
	}
}
