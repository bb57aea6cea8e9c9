//go:build !linux

package store

// releasePages is a no-op off Linux: a pooled chunk stays resident
// until it is cleared and used again. (Where the chunk source is the
// Go heap there is nothing to advise; and darwin's MADV_DONTNEED keeps
// a page's contents, so it would not release what it is asked to.)
func releasePages([]byte) {}
