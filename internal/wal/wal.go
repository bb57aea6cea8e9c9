package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
)

// Segment files are named wal-%08d.log with 1-based indexes that only
// ever grow; each starts with an 8-byte magic and holds a stream of
// [u32 length][u32 crc32c(payload)][payload] frames, little-endian.
const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	magic      = "RINGWAL1"
	headerSize = len(magic)
	frameSize  = 8 // u32 length + u32 crc32c
	// maxRecord bounds a single payload; a length field beyond it is
	// treated as tail damage, not an allocation request.
	maxRecord = 16 << 20
	// maxScratch bounds the frame buffer Append keeps between records.
	maxScratch = 64 << 10

	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// it zero.
	DefaultSegmentBytes = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a WAL.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the active one
	// reaches this size (0 = DefaultSegmentBytes).
	SegmentBytes int
}

// WAL is an open write-ahead log. Append adds one record to the active
// segment (rotating first if it is full), Sync makes everything
// appended so far crash-durable, and PruneTo drops a prefix of sealed
// segments once their records are superseded elsewhere. A sealed
// segment has always been synced, so sealing never loses data under
// any fsync policy.
type WAL struct {
	fs       FS
	segBytes int64

	active    File
	activeIdx uint64
	sealed    []uint64 // ascending, all synced and closed

	frame   []byte // Append's scratch: the frame being written
	dirty   bool
	damaged bool
	stats   Stats
}

// Stats counts what a WAL did since Open: records and bytes appended,
// fsyncs issued (seals included), segments sealed and segments pruned.
type Stats struct {
	Appends, Bytes, Syncs, Sealed, Pruned uint64
}

// SegName returns the file name of segment idx; exported for tests and
// the fault plane.
func SegName(idx uint64) string { return fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	var idx uint64
	digits := name[len(segPrefix) : len(name)-len(segSuffix)]
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

// Open replays every intact record through replay in log order,
// truncates the torn tail, and leaves the log open for appending.
//
// The first invalid frame ends the log: the segment is truncated at
// the last valid record and every later segment is deleted. A frame
// that is merely incomplete (the crash cut it short) is a torn tail —
// the normal aftermath of a crash. A frame that is fully present but
// fails its CRC, or any invalid frame in a non-final segment, is
// *damage*: data that was once durable has been lost, so Damaged
// reports true and the caller must treat local state as a hint rather
// than truth (the recovery protocol falls back to a full resync).
func Open(fsys FS, opts Options, replay func(seg uint64, payload []byte) error) (*WAL, error) {
	segBytes := int64(opts.SegmentBytes)
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	w := &WAL{fs: fsys, segBytes: segBytes}

	names, err := fsys.List()
	if err != nil {
		return nil, err
	}
	var idxs []uint64
	for _, name := range names {
		if idx, ok := parseSegName(name); ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })

	if len(idxs) == 0 {
		return w, w.createSegment(1)
	}

	broken := false
	end := len(idxs) // 1 + index (into idxs) of the segment ending the log
	var tail int64   // valid byte length of segment idxs[end-1]
	for i, idx := range idxs {
		data, err := w.fs.ReadFile(SegName(idx))
		if err != nil {
			return nil, err
		}
		validEnd, clean, torn := scanSegment(data, func(payload []byte) error {
			if replay == nil {
				return nil
			}
			return replay(idx, payload)
		})
		if clean {
			continue
		}
		// Invalid frame: this segment ends the log here.
		broken, end, tail = true, i+1, validEnd
		if !torn || i < len(idxs)-1 {
			// Fully-present-but-corrupt frame, or any break before the
			// final segment: durable bytes were lost, not just a torn
			// tail.
			w.damaged = true
		}
		break
	}

	if !broken {
		// Every segment replayed cleanly: reopen the last for appending.
		last := idxs[len(idxs)-1]
		f, err := w.fs.OpenFile(SegName(last))
		if err != nil {
			return nil, err
		}
		w.active, w.activeIdx = f, last
		w.sealed = append(w.sealed, idxs[:len(idxs)-1]...)
		return w, nil
	}

	// Truncate the broken segment at its last valid record and drop
	// everything after it.
	last := idxs[end-1]
	f, err := w.fs.OpenFile(SegName(last))
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(tail); err != nil {
		f.Close() //ring:durableok failed-path teardown, the primary error wins
		return nil, err
	}
	if tail < int64(headerSize) {
		// Not even an intact magic: rewrite the header.
		if err := f.Truncate(0); err != nil {
			f.Close() //ring:durableok failed-path teardown, the primary error wins
			return nil, err
		}
		if _, err := f.Append([]byte(magic)); err != nil {
			f.Close() //ring:durableok failed-path teardown, the primary error wins
			return nil, err
		}
	}
	w.active, w.activeIdx = f, last
	for _, idx := range idxs[end:] {
		if err := w.fs.Remove(SegName(idx)); err != nil {
			f.Close() //ring:durableok failed-path teardown, the primary error wins
			return nil, err
		}
	}
	w.sealed = append(w.sealed, idxs[:end-1]...)
	w.dirty = true // the truncation itself wants an fsync
	return w, nil
}

// scanSegment walks one segment's frames, calling replay for each
// valid payload. It returns the byte offset of the end of the last
// valid record, whether the whole segment was consumed cleanly, and —
// when it was not — whether the invalid frame looks like a torn tail
// (incomplete frame) rather than corruption (fully present, bad CRC).
func scanSegment(data []byte, replay func([]byte) error) (validEnd int64, clean, torn bool) {
	if len(data) < headerSize || string(data[:headerSize]) != magic {
		// A header shorter than the magic is a torn creation; a full
		// header with wrong bytes is corruption.
		return 0, false, len(data) < headerSize
	}
	off := headerSize
	for off < len(data) {
		if len(data)-off < frameSize {
			return int64(off), false, true
		}
		length := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if length > maxRecord || off+frameSize+int(length) > len(data) {
			return int64(off), false, true
		}
		payload := data[off+frameSize : off+frameSize+int(length)]
		if crc32.Checksum(payload, castagnoli) != crc {
			return int64(off), false, false
		}
		if replay != nil {
			if err := replay(payload); err != nil {
				// A replay error marks the record unusable but the frame
				// itself was intact; treat as corruption.
				return int64(off), false, false
			}
		}
		off += frameSize + int(length)
	}
	return int64(off), true, false
}

func (w *WAL) createSegment(idx uint64) error {
	f, err := w.fs.OpenFile(SegName(idx))
	if err != nil {
		return err
	}
	if err := f.Truncate(0); err != nil {
		f.Close() //ring:durableok failed-path teardown, the primary error wins
		return err
	}
	if _, err := f.Append([]byte(magic)); err != nil {
		f.Close() //ring:durableok failed-path teardown, the primary error wins
		return err
	}
	w.active, w.activeIdx = f, idx
	w.dirty = true
	return nil
}

// FrameHeader is the room AppendFramed needs in front of a payload.
const FrameHeader = frameSize

// Append adds one record to the log and returns the index of the
// segment it landed in (the unit of pruning). The record is not
// durable until the next Sync.
func (w *WAL) Append(payload []byte) (uint64, error) {
	frame := append(append(w.frame[:0], make([]byte, frameSize)...), payload...)
	if cap(frame) <= maxScratch {
		w.frame = frame
	}
	return w.AppendFramed(frame)
}

// AppendFramed is Append for a caller that built its payload behind
// FrameHeader spare bytes: the header is written into frame[:FrameHeader]
// and the record reaches the file as one File.Append, with no copy.
func (w *WAL) AppendFramed(frame []byte) (uint64, error) {
	payload := frame[frameSize:]
	if len(payload) > maxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	if w.active.Size() >= w.segBytes {
		if err := w.rotate(); err != nil {
			return 0, err
		}
	}
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	if _, err := w.active.Append(frame); err != nil {
		return 0, err
	}
	w.dirty = true
	w.stats.Appends++
	w.stats.Bytes += uint64(len(frame))
	return w.activeIdx, nil
}

// rotate seals the active segment — synced, closed, never written
// again — and opens the next one.
func (w *WAL) rotate() error {
	if err := w.active.Sync(); err != nil {
		return err
	}
	if err := w.active.Close(); err != nil {
		return err
	}
	w.stats.Syncs++
	w.stats.Sealed++
	w.dirty = false
	w.sealed = append(w.sealed, w.activeIdx)
	return w.createSegment(w.activeIdx + 1)
}

// Sync makes every appended record crash-durable.
func (w *WAL) Sync() error {
	if !w.dirty {
		return nil
	}
	if err := w.active.Sync(); err != nil {
		return err
	}
	w.dirty = false
	w.stats.Syncs++
	return nil
}

// Dirty reports whether unsynced appends exist.
func (w *WAL) Dirty() bool { return w.dirty }

// Damaged reports whether Open found evidence of lost durable bytes
// (mid-log corruption) rather than just a torn tail.
func (w *WAL) Damaged() bool { return w.damaged }

// ActiveSegment returns the index of the segment now accepting
// appends.
func (w *WAL) ActiveSegment() uint64 { return w.activeIdx }

// SealedSegments returns the ascending indexes of sealed segments.
func (w *WAL) SealedSegments() []uint64 { return append([]uint64(nil), w.sealed...) }

// Stats returns the counters of this WAL instance.
func (w *WAL) Stats() Stats { return w.stats }

// PruneTo deletes every sealed segment with index < idx. The caller
// must only prune a *prefix* whose records are all superseded by
// synced state elsewhere — pruning from the middle could resurrect a
// purged version on replay.
func (w *WAL) PruneTo(idx uint64) error {
	kept := w.sealed[:0]
	for i, s := range w.sealed {
		if s >= idx {
			kept = append(kept, s)
			continue
		}
		if err := w.fs.Remove(SegName(s)); err != nil {
			// Keep the failed segment and everything not yet visited in
			// the sealed list; replaying or re-pruning them later is
			// merely wasteful, losing track of them is not (a dropped
			// entry is never pruned).
			w.sealed = append(kept, w.sealed[i:]...)
			return err
		}
		w.stats.Pruned++
	}
	w.sealed = kept
	return nil
}

// Compact replaces the entire log with the given records: they are
// written to a fresh segment (or several) with indexes above every
// existing one, synced, and only then are the old segments deleted.
// A crash at any point leaves a log that replays to the same state —
// old and new segments merely overlap and replay is idempotent.
// Recovery uses this to rewrite the surviving records once, so prune
// bookkeeping restarts exact; records are framed as for AppendFramed
// and the returned slice gives the segment each one landed in.
func (w *WAL) Compact(records [][]byte) ([]uint64, error) {
	oldSealed := append([]uint64(nil), w.sealed...)
	oldActive := w.activeIdx
	if err := w.active.Sync(); err != nil {
		return nil, err
	}
	if err := w.active.Close(); err != nil {
		return nil, err
	}
	w.sealed = w.sealed[:0]
	if err := w.createSegment(oldActive + 1); err != nil {
		return nil, err
	}
	segs := make([]uint64, len(records))
	for i, rec := range records {
		seg, err := w.AppendFramed(rec)
		if err != nil {
			return nil, err
		}
		segs[i] = seg
	}
	if err := w.Sync(); err != nil {
		return nil, err
	}
	// New state durable: the old segments are now redundant.
	for _, idx := range append(oldSealed, oldActive) {
		if err := w.fs.Remove(SegName(idx)); err != nil {
			return nil, err
		}
	}
	return segs, nil
}

// Close syncs and closes the log.
func (w *WAL) Close() error {
	if err := w.Sync(); err != nil {
		w.active.Close() //ring:durableok sync failed, its error wins
		return err
	}
	return w.active.Close()
}
