// Package durablepath is the fixture for the durablepath analyzer: it
// calls the real durable storage packages and discards errors in every
// shape the analyzer must catch, plus the shapes it must leave alone.
package durablepath

import (
	"ring/internal/bitcask"
	"ring/internal/replog"
	"ring/internal/wal"
)

func dropsOnWAL(w *wal.WAL) {
	w.Sync()     // want `durable error discarded: wal\.Sync`
	w.Close()    // want `durable error discarded: wal\.Close`
	_ = w.Sync() // want `durable error discarded: wal\.Sync`
	if _, err := w.Append(nil); err != nil {
		panic(err)
	}
	_, _ = w.Append(nil)    // want `durable error discarded: wal\.Append`
	seg, _ := w.Append(nil) // want `durable error discarded: wal\.Append`
	_ = seg

	// Results that are not errors stay free.
	_ = w.ActiveSegment()
	_ = w.Dirty()
}

func dropsOnBitcask(db *bitcask.DB) {
	db.Put("k", nil)             // want `durable error discarded: bitcask\.Put`
	defer db.Close()             // want `durable error discarded: bitcask\.Close`
	go db.Sync()                 // want `durable error discarded: bitcask\.Sync`
	_, _, _ = db.Get("k")        // want `durable error discarded: bitcask\.Get`
	n, _ := db.DeletePrefix("p") // want `durable error discarded: bitcask\.DeletePrefix`
	_ = n
}

func dropsOnDurable(d *replog.Durable, sk replog.ShardKey) {
	d.Purge(sk, 1, "k", 2) // want `durable error discarded: replog\.Purge`
	d.MaybeSync(0, 0)      // want `durable error discarded: replog\.MaybeSync`
	if err := d.Reset(sk); err != nil {
		panic(err)
	}
	// Error-free accessors stay free.
	_ = d.Dirty()
	_ = d.DurableStats()
}

// interfaceCovered pins that calls through the wal.FS interface — the
// seam the simulator's fault injection lives behind — are checked too.
func interfaceCovered(fsys wal.FS) {
	fsys.Remove("seg") // want `durable error discarded: wal\.Remove`
	if _, err := fsys.OpenFile("seg"); err != nil {
		panic(err)
	}
}

// justified carries the function-level exemption: a teardown path
// closing an engine already known damaged.
//
//ring:durableok damaged-engine teardown, nothing left to lose
func justified(w *wal.WAL) {
	w.Close()
}

func lineJustified(db *bitcask.DB) {
	db.Close() //ring:durableok fixture teardown
}

// parallelAssign pins the per-slot blank check in a parallel
// assignment: only the durable call's own slot may trip it.
func parallelAssign(w *wal.WAL, db *bitcask.DB) {
	a, _ := w.Stats(), db.Sync() // want `durable error discarded: bitcask\.Sync`
	_, b := db.Len(), w.Sync()
	if b != nil {
		panic(b)
	}
	_ = a
}
