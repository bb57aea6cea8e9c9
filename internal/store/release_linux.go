package store

import "syscall"

// releasePages gives the pages behind a pooled chunk back to the
// system while the chunk stays mapped: MADV_DONTNEED drops them from
// the resident set, and the next write faults in a zero page. The
// call only advises; a chunk it fails on stays resident, as it did
// before, and is cleared when handed out again all the same.
func releasePages(b []byte) {
	_ = syscall.Madvise(b, syscall.MADV_DONTNEED)
}
