// Package wal implements the append-only write-ahead log of the
// durable storage layer: a sequence of fixed-prefix segment files,
// each a stream of CRC32C-framed records, with torn-tail detection and
// truncation on open, segment rotation, and prefix pruning.
//
// The package also defines the small filesystem slice (FS/File) the
// whole durable layer is written against, with two implementations: a
// directory of real files (DirFS) for cmd/ringd, and an in-memory
// filesystem (MemFS) with crash semantics — unsynced bytes are torn
// off at a crash point — for the simulator's disk fault plane.
package wal

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FS is a flat directory of named files — everything the durable layer
// needs from a filesystem.
type FS interface {
	// OpenFile opens name for reading and appending, creating it empty
	// if it does not exist.
	OpenFile(name string) (File, error)
	// ReadFile returns the entire current content of name.
	ReadFile(name string) ([]byte, error)
	// Remove deletes name; removing a missing file is not an error.
	Remove(name string) error
	// List returns the names of all files, sorted.
	List() ([]string, error)
}

// File is one open file. Appends go to the end; reads address absolute
// offsets; Sync makes everything appended so far crash-durable. Append
// must not retain p: the durable tier encodes every record into one
// scratch frame and reuses it for the next.
type File interface {
	Append(p []byte) (int, error)
	ReadAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Size() int64
	Sync() error
	Close() error
}

// DirFS returns an FS backed by the directory dir, which must exist.
func DirFS(dir string) FS { return dirFS{dir: dir} }

type dirFS struct{ dir string }

func (d dirFS) OpenFile(name string) (File, error) {
	path := filepath.Join(d.dir, name)
	_, statErr := os.Stat(path)
	created := os.IsNotExist(statErr)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if created {
		// A new dirent is not crash-durable until the directory itself
		// is fsynced: without this, a freshly rotated WAL segment can
		// vanish entirely after power loss even though File.Sync
		// succeeded on its contents.
		if err := d.syncDir(); err != nil {
			f.Close() //ring:durableok failed-path teardown, the primary error wins
			return nil, err
		}
	}
	st, err := f.Stat()
	if err != nil {
		f.Close() //ring:durableok failed-path teardown, the primary error wins
		return nil, err
	}
	return &osFile{f: f, size: st.Size()}, nil
}

// syncDir fsyncs the directory itself, making file creations and
// removals crash-durable.
func (d dirFS) syncDir() error {
	df, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	if err := df.Sync(); err != nil {
		df.Close() //ring:durableok failed-path teardown, the primary error wins
		return err
	}
	return df.Close()
}

func (d dirFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(d.dir, name))
}

func (d dirFS) Remove(name string) error {
	err := os.Remove(filepath.Join(d.dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	// Make the removal itself crash-durable, so a merge never treats a
	// segment as gone while its dirent could reappear.
	return d.syncDir()
}

func (d dirFS) List() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// osFile tracks the append offset explicitly so that Truncate followed
// by Append never leaves a hole: every write lands at the tracked end.
type osFile struct {
	f    *os.File
	size int64
}

func (o *osFile) Append(p []byte) (int, error) {
	n, err := o.f.WriteAt(p, o.size)
	o.size += int64(n)
	return n, err
}

func (o *osFile) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }

func (o *osFile) Truncate(size int64) error {
	if err := o.f.Truncate(size); err != nil {
		return err
	}
	o.size = size
	return nil
}

func (o *osFile) Size() int64  { return o.size }
func (o *osFile) Sync() error  { return o.f.Sync() }
func (o *osFile) Close() error { return o.f.Close() }

// MemFS is an in-memory FS with crash semantics for the simulator's
// disk fault plane: each file remembers how much of it has been
// synced, Crash tears every file back to its synced prefix plus a
// random-length torn fragment of the unsynced suffix, FlipBit models
// media corruption, and FailSyncs models a disk whose fsync starts
// returning errors (fsyncgate). All methods are safe for concurrent
// use; the counters feed the simulator's disk cost model.
type MemFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	syncErr error
	syncs   uint64
}

type memFile struct {
	fs     *MemFS
	name   string
	data   []byte
	synced int
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*memFile)} }

func (m *MemFS) OpenFile(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		f = &memFile{fs: m, name: name}
		m.files[name] = f
	}
	return f, nil
}

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Crash models a machine crash: every file keeps its synced prefix
// plus a rng-chosen prefix of its unsynced suffix — the torn final
// record the WAL must detect and truncate on the next open.
func (m *MemFS) Crash(rng *rand.Rand) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := m.files[name]
		if len(f.data) > f.synced {
			keep := f.synced + rng.Intn(len(f.data)-f.synced+1)
			f.data = f.data[:keep]
			f.synced = keep
		}
	}
}

// FlipBit flips one bit of name at the given bit offset — media
// corruption the CRC framing must catch.
func (m *MemFS) FlipBit(name string, bit int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok || bit < 0 || bit/8 >= int64(len(f.data)) {
		return false
	}
	f.data[bit/8] ^= 1 << uint(bit%8)
	return true
}

// CorruptWAL flips one rng-chosen bit in the record region of the
// newest WAL segment that has any records, reporting whether a bit was
// flipped.
func (m *MemFS) CorruptWAL(rng *rand.Rand) bool {
	m.mu.Lock()
	var target *memFile
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := m.files[name]
		if strings.HasPrefix(name, segPrefix) && len(f.data) > headerSize {
			target = f // sorted ascending: the last match is the newest
		}
	}
	if target == nil {
		m.mu.Unlock()
		return false
	}
	span := int64(len(target.data)-headerSize) * 8
	bit := int64(headerSize)*8 + int64(rng.Int63n(span))
	target.data[bit/8] ^= 1 << uint(bit%8)
	m.mu.Unlock()
	return true
}

// FailSyncs makes every subsequent Sync on every file return err; a
// nil err heals the disk.
func (m *MemFS) FailSyncs(err error) {
	m.mu.Lock()
	m.syncErr = err
	m.mu.Unlock()
}

// Syncs counts successful fsyncs across all files — the simulator
// charges its fsync latency model on deltas of this counter.
func (m *MemFS) Syncs() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncs
}

// FileSize reports the current size of name (0 if absent); for tests.
func (m *MemFS) FileSize(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[name]; ok {
		return int64(len(f.data))
	}
	return 0
}

func (f *memFile) Append(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.data = append(f.data, p...)
	f.fs.mu.Unlock()
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off < 0 || off >= int64(len(f.data)) {
		return 0, fmt.Errorf("wal: read past end of %s", f.name)
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, fmt.Errorf("wal: short read of %s", f.name)
	}
	return n, nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("wal: bad truncate of %s to %d", f.name, size)
	}
	f.data = f.data[:size]
	if f.synced > int(size) {
		f.synced = int(size)
	}
	return nil
}

func (f *memFile) Size() int64 {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return int64(len(f.data))
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.syncErr != nil {
		return f.fs.syncErr
	}
	f.synced = len(f.data)
	f.fs.syncs++
	return nil
}

func (f *memFile) Close() error { return nil }
