// Package bitcask implements the value store of the durable layer: a
// Bitcask-style log-structured hash table. Data files hold CRC-framed
// key/value records appended in write order; an in-memory keydir maps
// each live key to its newest record; Merge compacts the live set into
// fresh data files and writes hint files so the next Open rebuilds the
// keydir without reading any values.
//
// The durable layer (internal/replog) stores one record per committed
// entry under a key derived from (memgest, shard, KeyHash key,
// version), so compaction here never has to understand the
// write-ahead metadata tables — a version is immutable once written
// and is either live or deleted.
package bitcask

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"

	"ring/internal/wal"
)

const (
	dataPrefix = "bc-"
	dataSuffix = ".data"
	hintSuffix = ".hint"
	frameSize  = 12 // u32 keyLen + u32 valLen + u32 crc32c(key||val)
	// tombstone is the valLen sentinel of a delete record (CRC over the
	// key alone).
	tombstone = ^uint32(0)
	maxKey    = 1 << 16
	maxValue  = 64 << 20
	// maxScratch bounds the frame buffer kept between records, so one
	// large value is not held for the life of the store.
	maxScratch = 64 << 10

	// DefaultSegmentBytes rotates data files at this size when Options
	// leaves it zero.
	DefaultSegmentBytes = 4 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a DB.
type Options struct {
	SegmentBytes int
}

type loc struct {
	file   uint64
	valOff int64
	valLen uint32
}

// DB is an open Bitcask store.
type DB struct {
	fs       wal.FS
	segBytes int64

	keydir  map[string]loc
	files   []uint64 // ascending; last is the active file
	active  wal.File
	handles map[uint64]wal.File // lazily opened read handles for sealed files

	activeOff int64
	frame     []byte // appendRecord's scratch: the frame being written
	dirty     bool
	damaged   bool
	syncs     uint64
	dead      int // tombstones + superseded records since the last merge
}

func dataName(idx uint64) string { return fmt.Sprintf("%s%08d%s", dataPrefix, idx, dataSuffix) }
func hintName(idx uint64) string { return fmt.Sprintf("%s%08d%s", dataPrefix, idx, hintSuffix) }

func parseDataName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, dataPrefix) || !strings.HasSuffix(name, dataSuffix) {
		return 0, false
	}
	digits := name[len(dataPrefix) : len(name)-len(dataSuffix)]
	var idx uint64
	if len(digits) == 0 {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + uint64(c-'0')
	}
	return idx, true
}

// Open loads (or creates) a store. Sealed data files are indexed from
// their hint files when one exists; files without a hint — always
// including the newest, which was still accepting appends at the
// crash — are scanned record by record. A torn final record in the
// newest file is truncated away; corruption anywhere else sets
// Damaged, telling the recovery protocol to distrust local state.
func Open(fsys wal.FS, opts Options) (*DB, error) {
	segBytes := int64(opts.SegmentBytes)
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	db := &DB{
		fs:       fsys,
		segBytes: segBytes,
		keydir:   make(map[string]loc),
		handles:  make(map[uint64]wal.File),
	}
	names, err := fsys.List()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if idx, ok := parseDataName(name); ok {
			db.files = append(db.files, idx)
		}
	}
	sort.Slice(db.files, func(i, j int) bool { return db.files[i] < db.files[j] })

	for i, idx := range db.files {
		newest := i == len(db.files)-1
		if !newest && db.loadHint(idx) {
			continue
		}
		if err := db.scanData(idx, newest); err != nil {
			return nil, err
		}
	}
	if len(db.files) == 0 {
		db.files = append(db.files, 1)
	}
	activeIdx := db.files[len(db.files)-1]
	f, err := fsys.OpenFile(dataName(activeIdx))
	if err != nil {
		return nil, err
	}
	db.active = f
	db.activeOff = f.Size()
	return db, nil
}

// loadHint rebuilds keydir entries for sealed file idx from its hint
// file, reporting success; any inconsistency falls back to a scan.
func (db *DB) loadHint(idx uint64) bool {
	data, err := db.fs.ReadFile(hintName(idx))
	if err != nil {
		return false
	}
	// Hint record: [u32 keyLen][u32 valLen][u64 valOff][u32 crc(key)][key]
	type entry struct {
		key string
		l   loc
	}
	var entries []entry
	off := 0
	for off < len(data) {
		if len(data)-off < 20 {
			return false
		}
		klen := binary.LittleEndian.Uint32(data[off:])
		vlen := binary.LittleEndian.Uint32(data[off+4:])
		voff := binary.LittleEndian.Uint64(data[off+8:])
		crc := binary.LittleEndian.Uint32(data[off+16:])
		if klen > maxKey || off+20+int(klen) > len(data) {
			return false
		}
		key := data[off+20 : off+20+int(klen)]
		if crc32.Checksum(key, castagnoli) != crc {
			return false
		}
		entries = append(entries, entry{string(key), loc{idx, int64(voff), vlen}})
		off += 20 + int(klen)
	}
	for _, e := range entries {
		if old, ok := db.keydir[e.key]; ok && old.file < idx {
			db.dead++
		}
		db.keydir[e.key] = e.l
	}
	return true
}

// scanData walks data file idx record by record, updating the keydir.
// In the newest file a torn final record is truncated; everywhere
// else, and for fully-present records failing their CRC, the store is
// marked damaged.
func (db *DB) scanData(idx uint64, newest bool) error {
	data, err := db.fs.ReadFile(dataName(idx))
	if err != nil {
		return err
	}
	off := 0
	validEnd := 0
	for off < len(data) {
		if len(data)-off < frameSize {
			break // short frame: torn tail
		}
		klen := binary.LittleEndian.Uint32(data[off:])
		vlen := binary.LittleEndian.Uint32(data[off+4:])
		crc := binary.LittleEndian.Uint32(data[off+8:])
		vbytes := int(vlen)
		if vlen == tombstone {
			vbytes = 0
		}
		if klen > maxKey || vlen != tombstone && vlen > maxValue ||
			off+frameSize+int(klen)+vbytes > len(data) {
			break // frame overruns the file: torn tail
		}
		key := data[off+frameSize : off+frameSize+int(klen)]
		val := data[off+frameSize+int(klen) : off+frameSize+int(klen)+vbytes]
		sum := crc32.Checksum(key, castagnoli)
		if vlen != tombstone {
			sum = crc32.Update(sum, castagnoli, val)
		}
		if sum != crc {
			// Fully present record, bad CRC: media corruption.
			db.damaged = true
			break
		}
		if vlen == tombstone {
			if _, ok := db.keydir[string(key)]; ok {
				delete(db.keydir, string(key))
				db.dead++
			}
			db.dead++
		} else {
			if _, ok := db.keydir[string(key)]; ok {
				db.dead++
			}
			db.keydir[string(key)] = loc{idx, int64(off + frameSize + int(klen)), vlen}
		}
		off += frameSize + int(klen) + vbytes
		validEnd = off
	}
	if validEnd == len(data) {
		return nil
	}
	if !newest {
		// A break before the newest file cannot be a torn tail: sealed
		// files never change after their final sync.
		db.damaged = true
		return nil
	}
	f, err := db.fs.OpenFile(dataName(idx))
	if err != nil {
		return err
	}
	if err := f.Truncate(int64(validEnd)); err != nil {
		f.Close() //ring:durableok failed-path teardown, the primary error wins
		return err
	}
	return f.Close()
}

// Put stores key -> val, superseding any older record.
func (db *DB) Put(key string, val []byte) error {
	if len(key) > maxKey || len(val) > maxValue {
		return fmt.Errorf("bitcask: record too large (%d-byte key, %d-byte value)", len(key), len(val))
	}
	if _, ok := db.keydir[key]; ok {
		db.dead++
	}
	l, err := db.appendRecord(key, val, false)
	if err != nil {
		return err
	}
	db.keydir[key] = l
	return nil
}

// Get returns the newest value of key.
func (db *DB) Get(key string) ([]byte, bool, error) {
	l, ok := db.keydir[key]
	if !ok {
		return nil, false, nil
	}
	val := make([]byte, l.valLen)
	f, err := db.handle(l.file)
	if err != nil {
		return nil, false, err
	}
	if l.valLen == 0 {
		return val, true, nil
	}
	if _, err := f.ReadAt(val, l.valOff); err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// Delete removes key by appending a tombstone. Deleting an absent key
// is a no-op.
func (db *DB) Delete(key string) error {
	if _, ok := db.keydir[key]; !ok {
		return nil
	}
	if _, err := db.appendRecord(key, nil, true); err != nil {
		return err
	}
	delete(db.keydir, key)
	db.dead += 2 // the superseded record and the tombstone itself
	return nil
}

// DeletePrefix removes every key with the given prefix, returning how
// many were deleted; used when a node sheds a shard's durable state.
func (db *DB) DeletePrefix(prefix string) (int, error) {
	var doomed []string
	for k := range db.keydir {
		if strings.HasPrefix(k, prefix) {
			doomed = append(doomed, k)
		}
	}
	sort.Strings(doomed)
	for _, k := range doomed {
		if err := db.Delete(k); err != nil {
			return 0, err
		}
	}
	return len(doomed), nil
}

func (db *DB) appendRecord(key string, val []byte, del bool) (loc, error) {
	if db.activeOff >= db.segBytes {
		if err := db.rotate(); err != nil {
			return loc{}, err
		}
	}
	vlen := uint32(len(val))
	if del {
		vlen = tombstone
	}
	// One frame, one File.Append: header, key and value are assembled in
	// the reused scratch buffer, which holds one record and nothing across
	// records.
	b := append(db.frame[:0], make([]byte, frameSize)...)
	b = append(append(b, key...), val...)
	binary.LittleEndian.PutUint32(b[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(b[4:], vlen)
	binary.LittleEndian.PutUint32(b[8:], crc32.Checksum(b[frameSize:], castagnoli))
	if cap(b) <= maxScratch {
		db.frame = b
	}
	if _, err := db.active.Append(b); err != nil {
		return loc{}, err
	}
	l := loc{
		file:   db.files[len(db.files)-1],
		valOff: db.activeOff + frameSize + int64(len(key)),
		valLen: uint32(len(val)),
	}
	db.activeOff += frameSize + int64(len(key)) + int64(len(val))
	db.dirty = true
	return l, nil
}

// rotate seals the active data file (synced, closed) and opens the
// next index.
func (db *DB) rotate() error {
	if err := db.active.Sync(); err != nil {
		return err
	}
	db.syncs++
	db.dirty = false
	old := db.files[len(db.files)-1]
	if err := db.active.Close(); err != nil {
		return err
	}
	delete(db.handles, old)
	next := old + 1
	f, err := db.fs.OpenFile(dataName(next))
	if err != nil {
		return err
	}
	db.files = append(db.files, next)
	db.active = f
	db.activeOff = f.Size()
	return nil
}

func (db *DB) handle(idx uint64) (wal.File, error) {
	if idx == db.files[len(db.files)-1] {
		return db.active, nil
	}
	if f, ok := db.handles[idx]; ok {
		return f, nil
	}
	f, err := db.fs.OpenFile(dataName(idx))
	if err != nil {
		return nil, err
	}
	db.handles[idx] = f
	return f, nil
}

// Merge compacts the live set into fresh data files (indexes above
// every existing one), writes their hint files, and deletes the old
// generation. A crash mid-merge leaves overlapping generations whose
// replay converges to the same keydir — newer files win per key.
func (db *DB) Merge() error {
	if err := db.Sync(); err != nil {
		return err
	}
	keys := make([]string, 0, len(db.keydir))
	for k := range db.keydir {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	oldFiles := append([]uint64(nil), db.files...)
	if err := db.active.Close(); err != nil {
		return err
	}
	next := oldFiles[len(oldFiles)-1] + 1
	db.files = append(db.files, next)
	f, err := db.fs.OpenFile(dataName(next))
	if err != nil {
		return err
	}
	db.active, db.activeOff = f, f.Size()

	type hintRec struct {
		key string
		l   loc
	}
	hints := make(map[uint64][]hintRec)
	newLocs := make(map[string]loc, len(keys))
	for _, k := range keys {
		val, ok, err := db.getFrom(oldFiles, k)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		l, err := db.appendRecord(k, val, false)
		if err != nil {
			return err
		}
		newLocs[k] = l
		hints[l.file] = append(hints[l.file], hintRec{k, l})
	}
	// Seal the merged generation behind a fresh active file before any
	// hint is written. Open trusts a hint for every non-newest file, so
	// a hint may only ever describe a file that can never be appended
	// to again: post-merge Puts must land in a hint-less file, or the
	// stale hint would hide them from the keydir after the next reopen.
	// rotate syncs the final merge file on the way out, making the
	// merged data durable.
	if err := db.rotate(); err != nil {
		return err
	}
	// Merged data durable and sealed: write the hints, then drop the
	// old generation. Hint files carry no authoritative state — a crash
	// between these steps only costs a rescan or a re-merge.
	for idx, recs := range hints {
		h, err := db.fs.OpenFile(hintName(idx))
		if err != nil {
			return err
		}
		if err := h.Truncate(0); err != nil {
			h.Close() //ring:durableok failed-path teardown, the primary error wins
			return err
		}
		var buf []byte
		for _, r := range recs {
			var hdr [20]byte
			binary.LittleEndian.PutUint32(hdr[0:], uint32(len(r.key)))
			binary.LittleEndian.PutUint32(hdr[4:], r.l.valLen)
			binary.LittleEndian.PutUint64(hdr[8:], uint64(r.l.valOff))
			binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum([]byte(r.key), castagnoli))
			buf = append(buf, hdr[:]...)
			buf = append(buf, r.key...)
		}
		if _, err := h.Append(buf); err != nil {
			h.Close() //ring:durableok failed-path teardown, the primary error wins
			return err
		}
		if err := h.Sync(); err != nil {
			h.Close() //ring:durableok failed-path teardown, the primary error wins
			return err
		}
		if err := h.Close(); err != nil {
			return err
		}
	}
	for _, idx := range oldFiles {
		delete(db.handles, idx)
		if err := db.fs.Remove(dataName(idx)); err != nil {
			return err
		}
		if err := db.fs.Remove(hintName(idx)); err != nil {
			return err
		}
	}
	kept := db.files[:0]
	for _, idx := range db.files {
		old := false
		for _, o := range oldFiles {
			if idx == o {
				old = true
				break
			}
		}
		if !old {
			kept = append(kept, idx)
		}
	}
	db.files = kept
	for k, l := range newLocs {
		db.keydir[k] = l
	}
	db.dead = 0
	return nil
}

// getFrom reads key's current value while its loc may still point into
// the pre-merge generation.
func (db *DB) getFrom(oldFiles []uint64, key string) ([]byte, bool, error) {
	l, ok := db.keydir[key]
	if !ok {
		return nil, false, nil
	}
	f, err := db.handle(l.file)
	if err != nil {
		return nil, false, err
	}
	val := make([]byte, l.valLen)
	if l.valLen == 0 {
		return val, true, nil
	}
	if _, err := f.ReadAt(val, l.valOff); err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// Range calls fn for every live key in sorted order, reading each
// value once.
func (db *DB) Range(fn func(key string, val []byte) error) error {
	keys := make([]string, 0, len(db.keydir))
	for k := range db.keydir {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		val, ok, err := db.Get(k)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := fn(k, val); err != nil {
			return err
		}
	}
	return nil
}

// Sync makes every record appended so far crash-durable.
func (db *DB) Sync() error {
	if !db.dirty {
		return nil
	}
	if err := db.active.Sync(); err != nil {
		return err
	}
	db.dirty = false
	db.syncs++
	return nil
}

// Dirty reports whether unsynced appends exist.
func (db *DB) Dirty() bool { return db.dirty }

// Damaged reports whether Open found lost durable bytes.
func (db *DB) Damaged() bool { return db.damaged }

// Len returns the live key count.
func (db *DB) Len() int { return len(db.keydir) }

// Dead returns the superseded/tombstone record count since the last
// merge — the fragmentation measure that triggers compaction.
func (db *DB) Dead() int { return db.dead }

// Files returns the ascending data file indexes (last is active).
func (db *DB) Files() []uint64 { return append([]uint64(nil), db.files...) }

// Syncs counts fsyncs issued by this DB instance.
func (db *DB) Syncs() uint64 { return db.syncs }

// Close syncs and closes every open handle.
func (db *DB) Close() error {
	err := db.Sync()
	if cerr := db.active.Close(); err == nil {
		err = cerr
	}
	for _, f := range db.handles {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	db.handles = make(map[uint64]wal.File)
	return err
}
