package store

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestBlockHeapConservation: allocated + free bytes always equals the
// heap capacity under random workloads, and Reserve round-trips with
// Free.
func TestBlockHeapConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewBlockHeap(0, 3, 128)
		capacity := uint64(3 * 128)
		var live []Extent
		for op := 0; op < 200; op++ {
			if h.UsedBytes()+h.FreeBytes() != capacity {
				return false
			}
			if len(live) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(live))
				h.Free(live[i])
				live = append(live[:i], live[i+1:]...)
				continue
			}
			e, err := h.Alloc(1 + rng.Intn(40))
			if err != nil {
				continue
			}
			live = append(live, e)
		}
		// Reserve what we free, then free it again.
		if len(live) > 0 {
			e := live[0]
			h.Free(e)
			if err := h.Reserve(e); err != nil {
				return false
			}
			h.Free(e)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReserve(t *testing.T) {
	h := NewBlockHeap(0, 1, 100)
	if err := h.Reserve(Extent{Block: 0, Off: 20, Len: 30}); err != nil {
		t.Fatal(err)
	}
	if h.UsedBytes() != 30 {
		t.Fatalf("used = %d", h.UsedBytes())
	}
	// Overlapping reservation fails.
	if err := h.Reserve(Extent{Block: 0, Off: 25, Len: 10}); err == nil {
		t.Fatal("overlapping reserve accepted")
	}
	// The surrounding space is still allocatable.
	a, err := h.Alloc(20)
	if err != nil || a.Off != 0 {
		t.Fatalf("front alloc: %+v %v", a, err)
	}
	b, err := h.Alloc(50)
	if err != nil || b.Off != 50 {
		t.Fatalf("tail alloc: %+v %v", b, err)
	}
	// Zero-length reserve is a no-op.
	if err := h.Reserve(Extent{}); err != nil {
		t.Fatal(err)
	}
}
