//go:build !unix

package store

// Off unix the chunk source is the Go heap: same chunks, same pool, but
// the collector sees the bytes again.

func mapAnon(n int) []byte { return make([]byte, n) }

func unmapAnon([]byte) {}
