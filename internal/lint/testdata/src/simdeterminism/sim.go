// Package simdeterminism is the fixture for the simdeterminism
// analyzer; the test loads it under the ring/internal/core import path.
package simdeterminism

import (
	"math/rand"
	"time"
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
