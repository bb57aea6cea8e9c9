package wal

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzWALReplay appends arbitrary bytes to a valid log and checks the
// contract the recovery path depends on: Open never panics, never
// errors, and always recovers the valid records as an exact prefix.
// (Appended garbage can in principle frame-align into extra "valid"
// records — CRC32C is detection, not authentication — so the check is
// prefix equality, not exact length.) When nrecs's top bit is set the
// garbage is a segment of its own after the valid ones, and one that
// starts with the older format's magic is refused with ErrOldFormat.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{}, uint8(2))
	f.Add([]byte{}, uint8(0x81)) // an empty newest segment: a torn creation
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(3))
	f.Add([]byte(magic), uint8(0))
	f.Add([]byte{0x04, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}, uint8(5))
	// A length word with one bit flipped (4 with check 4 is 0x04000004).
	f.Add([]byte{0x04, 0x00, 0x00, 0x05, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}, uint8(5))
	f.Add([]byte(oldMagic+"\x04\x00\x00\x00"), uint8(0x82))
	f.Fuzz(func(t *testing.T, garbage []byte, nrecs uint8) {
		fs := NewMemFS()
		w, err := Open(fs, Options{SegmentBytes: 256}, nil)
		if err != nil {
			t.Fatalf("Open fresh: %v", err)
		}
		want := make([][]byte, 0, nrecs%8)
		for i := 0; i < int(nrecs%8); i++ {
			p := bytes.Repeat([]byte{byte(i + 1)}, 5+i*13)
			if _, err := w.Append(p); err != nil {
				t.Fatalf("Append: %v", err)
			}
			want = append(want, p)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		names, err := fs.List()
		if err != nil || len(names) == 0 {
			t.Fatalf("List: %v %v", names, err)
		}
		target := names[len(names)-1]
		ownSegment := nrecs&0x80 != 0
		if ownSegment {
			idx, _ := parseSegName(target)
			target = SegName(idx + 1)
		}
		tail, err := fs.OpenFile(target)
		if err != nil {
			t.Fatalf("OpenFile: %v", err)
		}
		if _, err := tail.Append(garbage); err != nil {
			t.Fatalf("splice: %v", err)
		}

		var got [][]byte
		w2, err := Open(fs, Options{SegmentBytes: 256}, func(_ uint64, payload []byte) error {
			got = append(got, append([]byte(nil), payload...))
			return nil
		})
		if ownSegment && bytes.HasPrefix(garbage, []byte(oldMagic)) {
			if !errors.Is(err, ErrOldFormat) {
				t.Fatalf("Open over a %s segment: %v", oldMagic, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Open over garbage: %v", err)
		}
		if len(got) < len(want) {
			t.Fatalf("recovered %d records, want at least the %d valid ones", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d = %x, want %x", i, got[i], want[i])
			}
		}
		// The recovered log must be appendable and re-openable.
		if _, err := w2.Append([]byte("post")); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("Close after recovery: %v", err)
		}
		if _, err := Open(fs, Options{SegmentBytes: 256}, nil); err != nil {
			t.Fatalf("re-Open: %v", err)
		}
	})
}
