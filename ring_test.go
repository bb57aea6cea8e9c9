package ring_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"ring"
	"ring/internal/core"
)

// TestMain switches payload poisoning on for every cluster these tests
// drive: a handler that keeps a view into a packet past its return
// reads 0xDB (see core.PoisonPayloads).
func TestMain(m *testing.M) {
	core.PoisonPayloads = true
	os.Exit(m.Run())
}

func startCluster(t *testing.T) (*ring.Cluster, *ring.Client) {
	t.Helper()
	cl, err := ring.Start(ring.Config{
		Shards: 3, Redundant: 2, Spares: 1,
		Memgests: []ring.Scheme{ring.Rep(1, 3), ring.Rep(3, 3), ring.SRS(3, 2, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return cl, c
}

func TestFacadeQuickstart(t *testing.T) {
	_, c := startCluster(t)
	if _, err := c.Put("greeting", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	val, ver, err := c.Get("greeting")
	if err != nil || string(val) != "hello" || ver != 1 {
		t.Fatalf("get: %q v%d %v", val, ver, err)
	}
	// Raise resilience: replicate, then erasure code.
	if _, err := c.Move("greeting", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Move("greeting", 3); err != nil {
		t.Fatal(err)
	}
	val, ver, err = c.Get("greeting")
	if err != nil || string(val) != "hello" || ver != 3 {
		t.Fatalf("after moves: %q v%d %v", val, ver, err)
	}
	if err := c.Delete("greeting"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("greeting"); !errors.Is(err, ring.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestFacadeMemgestManagement(t *testing.T) {
	_, c := startCluster(t)
	id, err := c.CreateMemgest(ring.SRS(2, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := c.GetMemgestDescriptor(id)
	if err != nil || sc.K != 2 || sc.M != 1 || sc.S != 3 {
		t.Fatalf("descriptor %v %v", sc, err)
	}
	if err := c.SetDefaultMemgest(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteMemgest(id); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSurvivesNodeFailure(t *testing.T) {
	cl, c := startCluster(t)
	var vals [][]byte
	for i := 0; i < 10; i++ {
		v := bytes.Repeat([]byte{byte(i)}, 256)
		if _, err := c.PutIn(fmt.Sprintf("k%d", i), v, 3); err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
	cl.KillNode(1) // a coordinator
	for i := 0; i < 10; i++ {
		got, _, err := c.Get(fmt.Sprintf("k%d", i))
		if err != nil || !bytes.Equal(got, vals[i]) {
			t.Fatalf("k%d after failure: %v", i, err)
		}
	}
}

func TestFacadeVersioning(t *testing.T) {
	cl, err := ring.Start(ring.Config{
		Shards: 3, Redundant: 2,
		Memgests:          []ring.Scheme{ring.SRS(3, 2, 3), ring.Rep(1, 3)},
		KeepDurableBackup: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	if _, err := c.PutIn("vk", []byte("durable"), 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.PutIn("vk", []byte(fmt.Sprintf("fast-%d", i)), 2); err != nil {
			t.Fatal(err)
		}
	}
	// Newest is the last unreliable write.
	val, ver, err := c.Get("vk")
	if err != nil || string(val) != "fast-9" || ver != 11 {
		t.Fatalf("newest: %q v%d %v", val, ver, err)
	}
	// The pinned durable backup is still readable by version.
	val, ver, err = c.GetVersion("vk", 1)
	if err != nil || string(val) != "durable" || ver != 1 {
		t.Fatalf("backup: %q v%d %v", val, ver, err)
	}
	// A middle unreliable version was GCed.
	if _, _, err := c.GetVersion("vk", 5); !errors.Is(err, ring.ErrNotFound) {
		t.Fatalf("GCed version: %v", err)
	}
}
