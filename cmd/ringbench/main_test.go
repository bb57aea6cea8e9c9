package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// TestFastFiguresGolden holds the latency, analytic and recovery
// figures to testdata/fast.golden byte for byte. They are a function of
// the code alone: the nodes run in virtual time charged from their own
// counters, and the simulated clients run client.Session, the request
// logic of the live client. A change that moves a cell updates the file
// in the same diff and says why. Regenerate it from the repository root
// with
//
//	for e in fig2 fig7a fig7c fig8 fig10 fig12 fig13 fig16 ablation; do
//		go run ./cmd/ringbench -experiment $e -reps 21
//	done > cmd/ringbench/testdata/fast.golden
//
// table1, fig9 and fig11 are not in it: each takes tens of seconds.
func TestFastFiguresGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fast.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, name := range []string{"fig2", "fig7a", "fig7c", "fig8", "fig10", "fig12", "fig13", "fig16", "ablation"} {
		if err := experiment(&got, name, 21, 50*time.Millisecond); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("output differs from testdata/fast.golden at line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
}
