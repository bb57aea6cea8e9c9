package replog

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"ring/internal/proto"
	"ring/internal/wal"
)

type modelKey struct {
	sk ShardKey
	ek entryKey
}

// modelEntry is what the store must say about an entry: its value only
// once it is committed, since recovery drops open appends from the
// stash.
type modelEntry struct {
	// seq is the seq the entry's record carries, 0 for a bare install.
	seq       proto.Seq
	value     []byte
	hasValue  bool
	committed bool
	// left is an append the store was last opened with open: no table
	// holds it, so core names it with seq 0.
	left bool
}

// name is the seq core passes when it names e.
func (e modelEntry) name() proto.Seq {
	if e.left {
		return 0
	}
	return e.seq
}

func entryLine(sk ShardKey, ek entryKey, seq proto.Seq, committed bool, value []byte, hasValue bool) string {
	line := fmt.Sprintf("%v %s@%d seq=%d c=%v", sk, ek.key, ek.ver, seq, committed)
	if committed {
		line += fmt.Sprintf(" has=%v v=%d/%08x", hasValue, len(value), crc32.ChecksumIEEE(value))
	}
	return line
}

func renderLines(lines []string) string {
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func renderModel(m map[modelKey]modelEntry) string {
	var lines []string
	for k, e := range m {
		lines = append(lines, entryLine(k.sk, k.ek, e.seq, e.committed, e.value, e.hasValue))
	}
	return renderLines(lines)
}

// storeModel renders a freshly opened store as renderModel renders its
// model, through the index: the index says which records are live and
// whether their entries committed, the records themselves, read back
// from the log, what they name, and the stash what the committed
// entries hold. Each live record must be filed under its own entry's
// hash with its own check word, and each stash entry must be met
// exactly once.
func storeModel(t *testing.T, d *Durable) string {
	t.Helper()
	logged := map[recPos]walRecord{}
	var buf []byte
	for _, seg := range append(d.w.SealedSegments(), d.w.ActiveSegment()) {
		at := makeRecPos(seg, 0)
		var err error
		buf, err = d.w.ReadSegment(seg, buf, func(frame []byte) error {
			if r, ok := decodeWALRecord(frame[wal.FrameHeader:]); ok {
				r.rec.Key = strings.Clone(r.rec.Key)
				logged[at] = r
			}
			at++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var lines []string
	for sk, x := range d.live {
		stash := map[entryKey]RecoveredEntry{}
		if rs := d.Recovered()[sk]; rs != nil {
			for _, e := range rs.Entries {
				stash[entryKey{e.Rec.Key, e.Rec.Version}] = e
			}
		}
		for h, l := range x {
			r, ok := logged[l.at]
			ek := entryKey{r.rec.Key, r.rec.Version}
			switch hr, c := entryHash(ek.key, ek.ver); {
			case !ok || r.sk != sk:
				t.Fatalf("%v: the index files %#x at a record of %v", sk, h, r.sk)
			case hr != h || l.check != c:
				t.Fatalf("%v: %s@%d is filed under %#x with check %#x, want %#x and %#x", sk, ek.key, ek.ver, h, l.check, hr, c)
			}
			e, ok := stash[ek]
			delete(stash, ek)
			if l.committed() != ok {
				t.Fatalf("%v: %s@%d committed=%v in the index, in the stash %v", sk, ek.key, ek.ver, l.committed(), ok)
			}
			lines = append(lines, entryLine(sk, ek, r.seq, l.committed(), e.Value, e.HasValue))
		}
		if len(stash) > 0 {
			t.Fatalf("%v: stash entries the index does not hold: %v", sk, stash)
		}
	}
	for sk, rs := range d.Recovered() {
		if d.live[sk] == nil && len(rs.Entries) > 0 {
			t.Fatalf("%v: %d stash entries and no index", sk, len(rs.Entries))
		}
	}
	return renderLines(lines)
}

// FuzzDurableModel drives a store over 2 KiB segments with appends,
// commits, purges, resets, installs, syncs, merges and power cuts, and
// holds it to a map. The index counts what the map holds after every
// operation, and a power cut recovers the map as it stood after some
// operation since the last sync, merge or open (an open writes nothing,
// and the power cut before it left nothing unsynced), with the index,
// which replay builds, and the stash agreeing on it.
//
// The model names entries as core does. An append or install of an
// entry the model holds is a resend under the same seq, unless only its
// key names the entry (see below), when an append may bring a new one.
// A new entry now and then takes a seq another entry of the shard
// holds, as a coordinator that lost its log's tail does, and an entry
// is now and then appended again under a new seq, as a redundancy node
// does when the coordinator allocates a version again.
// What core names with seq 0 the model does too: a new entry installed
// bare (recovery learned it from a MetaFetchReply, which carries no
// seqs), and any purge or install of an append that was open when the
// store was last opened (no table holds it).
func FuzzDurableModel(f *testing.F) {
	f.Add([]byte{0, 2, 40, 1, 2, 0, 0, 4, 9, 7, 0, 0, 3, 0, 0, 7, 1, 3})
	f.Add([]byte{0, 2, 1, 7, 0, 0, 2, 2, 0, 4, 6, 2, 7, 0, 1, 2, 6, 0})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		ops := make([]byte, 900)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(runModel)
}

func runModel(t *testing.T, ops []byte) {
	ops = ops[:min(len(ops), 600)] // 200 operations fill a few segments
	fs := wal.NewMemFS()
	opts := DurableOptions{Policy: FsyncNever, WALSegmentBytes: 2048}
	d := openDurable(t, fs, opts)
	model := make(map[modelKey]modelEntry)
	since := []map[modelKey]modelEntry{{}}
	merges := uint64(0)
	seq := proto.Seq(0)
	for ; len(ops) >= 3; ops = ops[3:] {
		op, a, b := ops[0]%8, ops[1], ops[2]
		sk := ShardKey{Memgest: testSK.Memgest, Shard: uint32(a & 1)}
		ek := entryKey{fmt.Sprintf("k%d", a>>1&3), proto.Version(a>>3&3 + 1)}
		mk := modelKey{sk, ek}
		value := bytes.Repeat([]byte{b}, int(b))
		e, held := model[mk]
		var err error
		switch op {
		case 0:
			s := e.seq
			switch {
			case held && s != 0 && !e.left && b%4 == 3: // a version allocated again
				seq++
				s = seq
			case !held && b%4 == 3 && seq > 0:
				s = seq // a seq handed out again, maybe one an entry holds
			case !held || s == 0 || e.left && b&1 == 0:
				seq++
				s = seq
			default:
				value = e.value // a resend carries what the entry carries
			}
			err = d.Append(sk, s, rec(ek.key, ek.ver), value, true)
			model[mk] = modelEntry{seq: s, value: value, hasValue: true}
		case 1:
			err = d.Commit(sk, e.name(), rec(ek.key, ek.ver), nil, false)
			if held {
				e.committed, e.left = true, false
				model[mk] = e
			}
		case 2:
			err = d.Purge(sk, e.name(), ek.key, ek.ver)
			delete(model, mk)
		case 3:
			err = d.Reset(sk)
			maps.DeleteFunc(model, func(k modelKey, _ modelEntry) bool { return k.sk == sk })
		case 4:
			s := e.name()
			if !held && b&2 == 0 {
				seq++
				s = seq
			}
			n := modelEntry{seq: s, hasValue: b&1 == 0, committed: true}
			if n.hasValue {
				n.value = value
			}
			err = d.Install(sk, s, rec(ek.key, ek.ver), n.value, n.hasValue)
			model[mk] = n
		case 5:
			err = d.Sync()
		case 6:
			err = d.merge()
		case 7:
			fs.Crash(rand.New(rand.NewSource(int64(b))))
			d = openDurable(t, fs, opts)
			if d.Damaged() {
				t.Fatal("a power cut reads as damage")
			}
			got := storeModel(t, d)
			i := slices.IndexFunc(since, func(m map[modelKey]modelEntry) bool { return renderModel(m) == got })
			if i < 0 {
				t.Fatalf("recovered a state no prefix of the writes since the last fsync left:\n%swant one of %d, the newest:\n%s", got, len(since), renderModel(model))
			}
			model, since, merges = maps.Clone(since[i]), nil, 0
			for k, e := range model {
				e.left = !e.committed
				model[k] = e
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := d.MaybeSync(0, 0); err != nil { // merges when due
			t.Fatal(err)
		}
		if st := d.DurableStats(); op == 5 || op == 6 || st.Merges != merges {
			since, merges = nil, st.Merges
		}
		since = append(since, maps.Clone(model))
		checkBooks(t, d, model)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = openDurable(t, fs, opts)
	if got, want := storeModel(t, d), renderModel(model); got != want {
		t.Fatalf("after Close and open:\n%swant:\n%s", got, want)
	}
}

// checkBooks holds the index's counts to the model, and its per-segment
// live bytes to their total.
func checkBooks(t *testing.T, d *Durable, model map[modelKey]modelEntry) {
	t.Helper()
	open := 0
	for _, e := range model {
		if !e.committed {
			open++
		}
	}
	var live int64
	for _, u := range d.segs {
		live += u.live
	}
	if st := d.DurableStats(); st.LiveRecords != len(model) || st.Unresolved != open || st.LiveBytes != live {
		t.Fatalf("index counts %d records (%d open, %d bytes; segments say %d), the model %d (%d open)",
			st.LiveRecords, st.Unresolved, st.LiveBytes, live, len(model), open)
	}
}
