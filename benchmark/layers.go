package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"ring/internal/bitcask"
	"ring/internal/gf"
	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/rs"
	"ring/internal/srs"
	"ring/internal/store"
	"ring/internal/transport"
	"ring/internal/wal"
)

// Layer rows: each row times calls into one module's public functions,
// on inputs of the workload's value size, from a single goroutine and
// after a warm-up batch. They say what a layer costs in isolation; the
// traced run says how often an operation pays it.

const (
	rowBatches = 7                    // timed batches per row; the row reports the median batch
	rowBatch   = 4 * time.Millisecond // target length of one batch
)

// timeRow returns the median time per call of fn, in nanoseconds. The
// batch size comes from one untimed call, so a row takes about the same
// wall time whether a call costs 50 ns or a millisecond.
func timeRow(fn func()) float64 {
	fn() // first call: lazy tables, page faults
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	n := 1
	if one < rowBatch {
		n = int(rowBatch / (one + 1))
		if n > 200000 {
			n = 200000
		}
		if n < 1 {
			n = 1
		}
	}
	for i := 0; i < n; i++ { // warm-up batch
		fn()
	}
	per := make([]float64, rowBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	sort.Float64s(per)
	return per[rowBatches/2]
}

func gbps(bytes int, ns float64) float64 { return float64(bytes) / ns }

// layerRows measures every layer row at the workload's value size and
// stores them in r. out holds the scratch directories of the rows that
// need a real file system.
func layerRows(w *spec, out string, r *result) error {
	v := w.valueSize
	val := make([]byte, v)
	fillValue(val, 1, 1, 1)
	key := keyName(0xabcd)

	// proto: a put as the client sends it, and the batch a coordinator
	// packs when two appends for one replica share a drain.
	put := &proto.Put{Req: 7, Key: key, Value: val, Memgest: w.putMemgest}
	buf := make([]byte, 0, 2*v+256)
	r.set("proto.encode_put_ns", timeRow(func() { buf = proto.AppendEncode(buf[:0], put) }))
	enc := proto.Encode(put)
	var decErr error
	r.set("proto.decode_put_ns", timeRow(func() { _, decErr = proto.Decode(enc) }))
	if decErr != nil {
		return fmt.Errorf("proto.decode_put_ns: %w", decErr)
	}
	rec := proto.MetaRecord{Key: key, Version: 3, Memgest: w.putMemgest, Length: uint32(v)}
	app := &proto.RepAppend{Memgest: w.putMemgest, Shard: 1, Seq: 9, Rec: rec, Value: val}
	r.set("proto.batch_pack_ns", timeRow(func() { buf = proto.AppendBatch(buf[:0], app, app) }))

	mem, err := echoRTT(transport.NewMemFabric(0), v)
	if err != nil {
		return fmt.Errorf("transport.memnet_rtt_ns: %w", err)
	}
	r.set("transport.memnet_rtt_ns", mem)
	tcp, err := echoRTT(transport.NewTCPFabric(), v)
	if err != nil {
		return fmt.Errorf("transport.tcpnet_rtt_ns: %w", err)
	}
	r.set("transport.tcpnet_rtt_ns", tcp)

	// store: one value through the SRS block heap, one record through a
	// metadata table as full as a coordinator's.
	heap := store.NewBlockHeap(0, 1, blockSize)
	var heapErr error
	r.set("store.heap_write_ns", timeRow(func() {
		ext, err := heap.Alloc(v)
		if err != nil {
			heapErr = err
			return
		}
		heap.Write(ext, val)
		heap.Free(ext)
	}))
	if heapErr != nil {
		return fmt.Errorf("store.heap_write_ns: %w", heapErr)
	}
	meta := store.NewMetaTable()
	for i := 0; i < w.keys/shards; i++ {
		meta.Put(&store.Entry{Rec: proto.MetaRecord{Key: keyName(uint32(i)), Version: 1}})
	}
	entry := &store.Entry{Rec: rec}
	r.set("store.meta_put_get_ns", timeRow(func() {
		meta.Put(entry)
		if meta.Get(key, rec.Version) == nil {
			panic("store.meta_put_get_ns: entry vanished")
		}
		meta.Delete(key, rec.Version)
	}))

	// gf, rs, srs: the parity arithmetic of SRS(3,2,3).
	dst := make([]byte, v)
	r.set("gf.mulslicexor_gbps", gbps(v, timeRow(func() { gf.MulSliceXor(0x57, val, dst) })))
	r.set("gf.xorslice_gbps", gbps(v, timeRow(func() { gf.XorSlice(val, dst) })))
	encoder, err := rs.NewEncoder(3, 2)
	if err != nil {
		return err
	}
	data := [][]byte{val, dst, append([]byte(nil), val...)}
	parity := [][]byte{make([]byte, v), make([]byte, v)}
	var rsErr error
	r.set("rs.encode_gbps", gbps(3*v, timeRow(func() { rsErr = encoder.EncodeInto(data, parity) })))
	if rsErr != nil {
		return fmt.Errorf("rs.encode_gbps: %w", rsErr)
	}
	layout, err := srs.NewLayout(3, 2, shards)
	if err != nil {
		return err
	}
	r.set("srs.parity_delta_ns", timeRow(func() { layout.ParityDelta(0, val) }))
	blocks := make([][]byte, layout.L)
	for i := range blocks {
		blocks[i] = val
	}
	var srsErr error
	r.set("srs.encode_stretched_gbps", gbps(layout.L*v, timeRow(func() { _, srsErr = layout.EncodeStretched(blocks) })))
	if srsErr != nil {
		return fmt.Errorf("srs.encode_stretched_gbps: %w", srsErr)
	}

	return durableRows(w, out, r, rec, val)
}

// echoRTT times a round trip of a size-byte payload between two
// endpoints of fabric, one of which echoes.
func echoRTT(fabric transport.Fabric, size int) (float64, error) {
	b, err := fabric.Register("bench-b")
	if err != nil {
		return 0, err
	}
	defer b.Close()
	if tf, ok := fabric.(*transport.TCPFabric); ok {
		tf.Map("bench-b", transport.BoundAddr(b))
	}
	a, err := fabric.Register("bench-a")
	if err != nil {
		return 0, err
	}
	defer a.Close()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			p, err := b.Recv()
			if err != nil {
				return
			}
			if b.Send(p.From, p.Payload) != nil {
				return
			}
		}
	}()
	payload := make([]byte, size)
	var rttErr error
	ns := timeRow(func() {
		if rttErr != nil {
			return
		}
		if rttErr = a.Send("bench-b", append(transport.AcquireBuf(), payload...)); rttErr != nil {
			return
		}
		var p transport.Packet
		if p, rttErr = a.Recv(); rttErr == nil {
			transport.ReleaseBuf(p.Payload)
		}
	})
	b.Close()
	<-echoed
	return ns, rttErr
}

// durableRows measures the durable tier twice: over wal.MemFS, where
// only CPU is spent, and over a real directory with a sync per call.
func durableRows(w *spec, out string, r *result, rec proto.MetaRecord, val []byte) error {
	var rowErr error
	keep := func(err error) {
		if err != nil && rowErr == nil {
			rowErr = err
		}
	}
	payload := append(make([]byte, 0, len(val)+64), val...)
	payload = append(payload, rec.Key...)

	dir, err := scratchDir(out, "rows-")
	if err != nil {
		return err
	}
	defer removeScratch(dir)
	sub := func(name string) (wal.FS, error) {
		d, err := os.MkdirTemp(dir, name+"-")
		return wal.DirFS(d), err
	}

	memLog, err := wal.Open(wal.NewMemFS(), wal.Options{}, nil)
	if err != nil {
		return fmt.Errorf("wal.append_ns: %w", err)
	}
	r.set("wal.append_ns", timeRow(func() { _, err := memLog.Append(payload); keep(err) }))
	keep(memLog.Close())

	fsys, err := sub("wal")
	if err != nil {
		return err
	}
	dirLog, err := wal.Open(fsys, wal.Options{}, nil)
	if err != nil {
		return fmt.Errorf("wal.append_sync_us: %w", err)
	}
	r.set("wal.append_sync_us", timeRow(func() {
		_, err := dirLog.Append(payload)
		keep(err)
		keep(dirLog.Sync())
	})/1e3)
	keep(dirLog.Close())

	names := make([]string, 1024)
	for i := range names {
		names[i] = keyName(uint32(i))
	}
	memDB, err := bitcask.Open(wal.NewMemFS(), bitcask.Options{})
	if err != nil {
		return fmt.Errorf("bitcask.put_ns: %w", err)
	}
	i := 0
	r.set("bitcask.put_ns", timeRow(func() { keep(memDB.Put(names[i%len(names)], val)); i++ }))
	keep(memDB.Close())

	if fsys, err = sub("bitcask"); err != nil {
		return err
	}
	dirDB, err := bitcask.Open(fsys, bitcask.Options{})
	if err != nil {
		return fmt.Errorf("bitcask.put_sync_us: %w", err)
	}
	r.set("bitcask.put_sync_us", timeRow(func() {
		keep(dirDB.Put(names[i%len(names)], val))
		keep(dirDB.Sync())
		i++
	})/1e3)
	keep(dirDB.Close())

	if fsys, err = sub("replog"); err != nil {
		return err
	}
	dur, err := replog.OpenDurable(fsys, replog.DurableOptions{Policy: replog.FsyncAlways})
	if err != nil {
		return fmt.Errorf("replog.append_commit_sync_us: %w", err)
	}
	sk := replog.ShardKey{Memgest: w.putMemgest, Shard: 1}
	seq := proto.Seq(1)
	hasValue := w.putMemgest == mgRep3 // SRS memgests persist metadata only
	r.set("replog.append_commit_sync_us", timeRow(func() {
		rec.Key = names[int(seq)%len(names)]
		rec.Version = proto.Version(seq)
		keep(dur.Append(sk, seq, &rec, val, hasValue))
		keep(dur.Commit(sk, seq, &rec, val, hasValue))
		keep(dur.Sync())
		seq++
	})/1e3)
	keep(dur.Close())
	return rowErr
}
