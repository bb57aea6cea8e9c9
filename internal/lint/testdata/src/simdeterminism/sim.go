// Package simdeterminism is the fixture for the simdeterminism
// analyzer; the test loads it under the ring/internal/core import path.
package simdeterminism

import (
	"math/rand"
	"sort"
	"time"

	"ring/internal/store"
)

type node struct {
	deadline time.Duration
	rng      *rand.Rand
}

func (n *node) handle(now time.Duration) {
	if now > n.deadline { // event-clock arithmetic: fine
		n.deadline = now + 50*time.Millisecond
	}
	_ = time.Now()                   // want `time\.Now reads the wall clock`
	time.Sleep(time.Millisecond)     // want `time\.Sleep reads the wall clock`
	_ = time.Since(time.Time{})      // want `time\.Since reads the wall clock`
	_ = rand.Intn(10)                // want `rand\.Intn draws from the global source`
	rand.Shuffle(2, func(i, j int) { // want `rand\.Shuffle draws from the global source`
	})
	_ = n.rng.Intn(10) // seeded source: fine
}

// StartLive is the deliberate real-time boundary, like core's Runner.
//
//ring:wallclock bridges the live fabric to the event-driven node
func (n *node) StartLive() time.Time {
	return time.Now() // fine: behind //ring:wallclock
}

func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // sanctioned replacement
}

// Walks over the store's hashtables come back in Go map order.

func queueInMapOrder(t *store.MetaTable, v *store.VolatileIndex) (keys []string) {
	t.Range(func(e *store.Entry) bool { // want `MetaTable\.Range visits in Go map order and nothing after it in queueInMapOrder sorts`
		keys = append(keys, e.Rec.Key)
		return true
	})
	v.EachKey(func(key string) bool { // want `VolatileIndex\.EachKey visits in Go map order`
		keys = append(keys, key)
		return true
	})
	return keys
}

func queueSorted(t *store.MetaTable, v *store.VolatileIndex) (keys []string) {
	sort.Strings(keys) // a sort before the walk orders nothing the walk adds
	t.Range(func(e *store.Entry) bool {
		keys = append(keys, e.Rec.Key)
		return true
	})
	v.EachKey(func(key string) bool {
		keys = append(keys, key)
		return true
	})
	sort.Strings(keys)
	return keys
}

func sortedTooEarly(t *store.MetaTable) (keys []string) {
	sort.Strings(keys)
	t.Range(func(e *store.Entry) bool { // want `MetaTable\.Range visits in Go map order`
		keys = append(keys, e.Rec.Key)
		return true
	})
	return keys
}

func count(t *store.MetaTable) (n int) {
	t.Range(func(*store.Entry) bool { n++; return true }) //ring:maporder a count is the same in any order
	return n
}
