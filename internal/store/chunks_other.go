//go:build !unix

package store

// Off unix the chunk source is the Go heap: same chunks, same pool, but
// the collector sees the bytes again. An entry names its value's slot
// by an address the collector does not follow (Meta.loc), so what keeps
// a chunk alive is what keeps a mapping on unix: the arena's map of its
// chunks and runs, and the pool.

func mapAnon(n int) []byte { return make([]byte, n) }

func unmapAnon([]byte) {}
