package replog

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"slices"
	"sort"
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
	seq       proto.Seq
	value     []byte
	hasValue  bool
	committed bool
}

func renderModel(m map[modelKey]modelEntry) string {
	keys := make([]modelKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sk != keys[j].sk {
			return keys[i].sk.Less(keys[j].sk)
		}
		return keys[i].ek.less(keys[j].ek)
	})
	var b bytes.Buffer
	for _, k := range keys {
		e := m[k]
		fmt.Fprintf(&b, "%v %s@%d seq=%d c=%v", k.sk, k.ek.key, k.ek.ver, e.seq, e.committed)
		if e.committed {
			fmt.Fprintf(&b, " has=%v v=%d/%08x", e.hasValue, len(e.value), crc32.ChecksumIEEE(e.value))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// storeModel reads a freshly opened store back as a model: the index
// says which entries exist, their sequences and which committed, the
// stash what the committed ones hold.
func storeModel(t *testing.T, d *Durable) map[modelKey]modelEntry {
	got := make(map[modelKey]modelEntry)
	for sk, m := range d.live {
		for ek, l := range m {
			got[modelKey{sk, ek}] = modelEntry{seq: l.seq, committed: l.committed}
		}
	}
	for sk, rs := range d.Recovered() {
		for _, e := range rs.Entries {
			k := modelKey{sk, entryKey{e.Rec.Key, e.Rec.Version}}
			if !got[k].committed {
				t.Fatalf("stash entry %v is not committed in the index", k)
			}
			got[k] = modelEntry{seq: e.Seq, value: e.Value, hasValue: e.HasValue, committed: true}
		}
	}
	return got
}

// FuzzDurableModel drives a store over 2 KiB segments with appends,
// commits, purges, resets, installs, syncs, merges and power cuts, and
// holds it to a map. The index counts what the map holds after every
// operation, and a power cut recovers the map as it stood after some
// operation since the last sync, merge or open (an open writes nothing,
// and the power cut before it left nothing unsynced), with the index,
// which replay builds, and the stash agreeing on it.
func FuzzDurableModel(f *testing.F) {
	f.Add([]byte{0, 2, 40, 1, 2, 0, 0, 4, 9, 7, 0, 0, 3, 0, 0, 7, 1, 3})
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
		var err error
		switch op {
		case 0:
			seq++
			err = d.Append(sk, seq, rec(ek.key, ek.ver), value, true)
			model[mk] = modelEntry{seq: seq, value: value, hasValue: true}
		case 1:
			err = d.Commit(sk, model[mk].seq, rec(ek.key, ek.ver), nil, false)
			if e, ok := model[mk]; ok {
				e.committed = true
				model[mk] = e
			}
		case 2:
			err = d.Purge(sk, model[mk].seq, ek.key, ek.ver)
			delete(model, mk)
		case 3:
			err = d.Reset(sk)
			maps.DeleteFunc(model, func(k modelKey, _ modelEntry) bool { return k.sk == sk })
		case 4:
			seq++
			e := modelEntry{seq: seq, hasValue: b&1 == 0, committed: true}
			if e.hasValue {
				e.value = value
			}
			err = d.Install(sk, seq, rec(ek.key, ek.ver), e.value, e.hasValue)
			model[mk] = e
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
			got := renderModel(storeModel(t, d))
			i := slices.IndexFunc(since, func(m map[modelKey]modelEntry) bool { return renderModel(m) == got })
			if i < 0 {
				t.Fatalf("recovered a state no prefix of the writes since the last fsync left:\n%swant one of %d, the newest:\n%s", got, len(since), renderModel(model))
			}
			model, since, merges = maps.Clone(since[i]), nil, 0
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
	if got, want := renderModel(storeModel(t, d)), renderModel(model); got != want {
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
