package main

import (
	"net"
	"os"
	"strconv"
	"testing"
)

func TestParseProcStat(t *testing.T) {
	// A command name may hold spaces and parentheses; fields count from
	// the last ')'.
	line := "4242 (ring d) (x)) S 17 4242 4242 0 -1 4194560 1203 0 0 0 250 75 0 0 20 0 9 0 8675309 1234567 890 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	st, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if st.state != 'S' || st.ppid != 17 || st.ticks != 325 {
		t.Errorf("parsed %+v, want state S, ppid 17, 325 ticks", st)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 2 3"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
	// The live file parses, and this process has a parent.
	self, err := readProcStat(os.Getpid())
	if err != nil || self.ppid != os.Getppid() {
		t.Errorf("own stat: %+v, %v; parent is %d", self, err, os.Getppid())
	}
}

func TestFreePortsAreFreeAndOutOfTheWay(t *testing.T) {
	base, err := freePorts(2*nodeCount, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base < 20000 || base+2*nodeCount > 32000 {
		t.Errorf("ports %d.. leave the range kept clear of cluster.sh, the tests and ephemeral ports", base)
	}
	// An occupied port moves the search on.
	ln, err := net.Listen("tcp", net.JoinHostPort("127.0.0.1", strconv.Itoa(base+3)))
	if err != nil {
		t.Fatalf("port %d was reported free: %v", base+3, err)
	}
	defer ln.Close()
	next, err := freePorts(2*nodeCount, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next <= base+3 && base+3 < next+2*nodeCount {
		t.Errorf("range %d.. includes the occupied port %d", next, base+3)
	}
}

func TestFsTypeOf(t *testing.T) {
	if got := fsTypeOf("/proc/self"); got != "proc" {
		t.Errorf("fsTypeOf(/proc/self) = %q, want proc", got)
	}
	if got := fsTypeOf(t.TempDir()); got == "" || got == "unknown" {
		t.Errorf("fsTypeOf(temp dir) = %q", got)
	}
}

func TestScratchDirsAreRemoved(t *testing.T) {
	out := t.TempDir()
	dir, err := scratchDir(out, "data-")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cleanupAll()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("scratch directory survived cleanupAll: %v", err)
	}
	cleanupAll() // safe to call again
}
