package main

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ring/internal/proto"
)

// encodeStream is the byte form of a stream: the tests compare streams
// byte for byte.
func encodeStream(ops []op) []byte {
	var b bytes.Buffer
	for _, o := range ops {
		b.WriteByte(byte(o.kind))
		_ = binary.Write(&b, binary.LittleEndian, o.key)
	}
	return b.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a := encodeStream(w.stream(7, 50000))
		b := encodeStream(w.stream(7, 50000))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two streams of seed 7 differ", w.name)
		}
		if c := encodeStream(w.stream(8, 50000)); bytes.Equal(a, c) {
			t.Errorf("%s: streams of seeds 7 and 8 are identical", w.name)
		}
		// A longer stream extends a shorter one: the traced run and the
		// open phase read the same operations.
		if short := encodeStream(w.stream(7, 1000)); !bytes.Equal(short, a[:len(short)]) {
			t.Errorf("%s: the first 1000 ops depend on the stream length", w.name)
		}
	}
}

func TestStreamFollowsTheMix(t *testing.T) {
	for _, w := range workloads {
		if w.getPct+w.putPct+w.movePct != 100 {
			t.Errorf("%s: mix sums to %d", w.name, w.getPct+w.putPct+w.movePct)
		}
		var n [numKinds]int
		const total = 200000
		for _, o := range w.stream(3, total) {
			if int(o.key) >= w.keys {
				t.Fatalf("%s: key %d outside %d keys", w.name, o.key, w.keys)
			}
			n[o.kind]++
		}
		for k, pct := range []int{w.getPct, w.putPct, w.movePct} {
			got := 100 * float64(n[k]) / total
			if got < float64(pct)-1 || got > float64(pct)+1 {
				t.Errorf("%s: %.2f%% %s, want %d%%", w.name, got, opKind(k), pct)
			}
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, size := range []int{valueHeader, valueHeader + 3, 1024, 16 << 10} {
		buf := make([]byte, size)
		fillValue(buf, 42, 17, 5)
		if ctr, ok := checkValue(buf, size, 42, 17); !ok || ctr != 5 {
			t.Errorf("size %d: own value rejected (ctr %d, ok %v)", size, ctr, ok)
		}
		if _, ok := checkValue(buf, size, 43, 17); ok {
			t.Errorf("size %d: value of another seed accepted", size)
		}
		if _, ok := checkValue(buf, size, 42, 18); ok {
			t.Errorf("size %d: value of another key accepted", size)
		}
		if _, ok := checkValue(buf[:size-1], size, 42, 17); ok {
			t.Errorf("size %d: truncated value accepted", size)
		}
		if size > valueHeader {
			buf[size-1] ^= 1
			if _, ok := checkValue(buf, size, 42, 17); ok {
				t.Errorf("size %d: value with a flipped last bit accepted", size)
			}
		}
	}
}

func TestCheckerCatchesWrongReplies(t *testing.T) {
	w := findWorkload("rep3_1k_mixed")
	value := func(key, ctr uint32) []byte {
		buf := make([]byte, w.valueSize)
		fillValue(buf, 9, key, ctr)
		return buf
	}
	fresh := func() *checker {
		c := newChecker(w, 9)
		for i := 0; i < 3; i++ { // writes 0, 1, 2 of key 4 issued
			c.nextWrite(4, mgRep3)
		}
		return c
	}

	c := fresh()
	if !c.ackPut(4, 0, 1) || !c.ackPut(4, 1, 2) {
		t.Fatal("consistent acknowledgements rejected")
	}
	floor := c.floor(4)
	if floor != 2 {
		t.Fatalf("floor = %d, want 2", floor)
	}
	if !c.gotValue(4, floor, value(4, 1), 2) {
		t.Error("the acknowledged value at its version was rejected")
	}
	// Writes may commit out of issue order: write 2 at version 3 is fine.
	if !c.gotValue(4, floor, value(4, 2), 3) {
		t.Error("a newer version holding a concurrent write was rejected")
	}
	if n, _ := c.wrongValues(); n != 0 {
		t.Fatalf("%d wrong replies counted on a correct history", n)
	}

	for name, bad := range map[string]func(c *checker) bool{
		"stale read below the acknowledged version": func(c *checker) bool {
			c.ackPut(4, 0, 1)
			c.ackPut(4, 1, 2)
			return c.gotValue(4, c.floor(4), value(4, 0), 1)
		},
		"version that changes its value": func(c *checker) bool {
			c.ackPut(4, 0, 1)
			return c.gotValue(4, 0, value(4, 1), 1)
		},
		"value of a write never issued": func(c *checker) bool {
			return c.gotValue(4, 0, value(4, 3), 1)
		},
		"value of another key": func(c *checker) bool {
			return c.gotValue(4, 0, value(5, 0), 1)
		},
		"acknowledgement that contradicts a read": func(c *checker) bool {
			c.gotValue(4, 0, value(4, 0), 1)
			return c.ackPut(4, 1, 1)
		},
	} {
		c := fresh()
		if bad(c) {
			t.Errorf("%s: accepted", name)
		}
		if n, first := c.wrongValues(); n != 1 || first == "" {
			t.Errorf("%s: counted %d wrong replies (%q), want 1", name, n, first)
		}
	}
}

func TestMovesAlternateSchemes(t *testing.T) {
	c := newChecker(findWorkload("tier_1k_read90_move"), 1)
	want := []proto.MemgestID{mgSRS, mgRep3, mgSRS}
	for i, mg := range want {
		if got := c.nextMove(6); got != mg {
			t.Errorf("move %d of a rep3 key goes to memgest %d, want %d", i, got, mg)
		}
	}
	// A put sends the key back to its put memgest.
	c.nextWrite(6, mgRep3)
	if got := c.nextMove(6); got != mgSRS {
		t.Errorf("move after a rep3 put goes to memgest %d, want %d", got, mgSRS)
	}
	// The move floor rises with acknowledged moves too.
	c.ackMove(6, 7)
	if got := c.floor(6); got != 7 {
		t.Errorf("floor after a move acknowledged at version 7 = %d", got)
	}
}

func TestPartitionsCoverBothSchemes(t *testing.T) {
	var moved [connections]int
	for key := uint32(0); key < 64; key++ {
		if preMoved(key) {
			moved[connOf(key)]++
		}
	}
	for c, n := range moved {
		if n != 16 {
			t.Errorf("connection %d owns %d of 32 pre-moved keys, want 16", c, n)
		}
	}
}
