package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"ring/internal/testutil"
)

// TestMain runs ringd's own main when the launcher test re-executes
// this binary, as parent and as children alike: the variable is in the
// environment the children inherit.
func TestMain(m *testing.M) {
	if os.Getenv("RINGD_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLauncherSupervisesChildren starts `ringd -launch 2` twice. The
// first launcher prints the -nodes list, both children answer /status,
// and once one child is killed the launcher stops the other and exits
// 1 within five seconds. The second is sent SIGTERM and exits 0. Either
// way no child is left.
func TestLauncherSupervisesChildren(t *testing.T) {
	if testing.Short() {
		t.Skip("starts two two-node clusters")
	}
	if runtime.GOOS != "linux" {
		t.Skip("finds the launcher's children in /proc")
	}
	killed := startLauncher(t)
	if err := syscall.Kill(killed.kids[1], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if code := killed.exit(t, 5*time.Second); code != 1 {
		t.Errorf("the launcher exited %d once a child was killed, want 1", code)
	}
	killed.noChildLeft(t)

	stopped := startLauncher(t)
	if err := stopped.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := stopped.exit(t, 5*time.Second); code != 0 {
		t.Errorf("the launcher exited %d on SIGTERM, want 0", code)
	}
	stopped.noChildLeft(t)
}

type launcher struct {
	cmd    *exec.Cmd
	exited chan struct{}
	kids   []int // the children's process IDs
}

// startLauncher runs `ringd -launch 2` on free ports and returns once it
// has printed RING_NODES= and both children answer /status.
func startLauncher(t *testing.T) *launcher {
	t.Helper()
	base, httpBase := freePorts(t, 2), freePorts(t, 2)
	dir := t.TempDir()
	stdout := filepath.Join(dir, "stdout")
	out, err := os.Create(stdout)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	l := &launcher{exited: make(chan struct{})}
	l.cmd = exec.Command(os.Args[0], "-launch", "2", "-base-port", strconv.Itoa(base), "-http-base", strconv.Itoa(httpBase),
		"-shards", "1", "-redundant", "1", "-memgests", "rep2")
	l.cmd.Env = append(os.Environ(), "RINGD_TEST_MAIN=1")
	l.cmd.Stdout = out
	l.cmd.Stderr = out
	if err := l.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { _ = l.cmd.Wait(); close(l.exited) }()
	t.Cleanup(func() {
		_ = l.cmd.Process.Kill()
		<-l.exited
		for _, pid := range l.kids {
			_ = syscall.Kill(pid, syscall.SIGKILL)
		}
	})

	want := fmt.Sprintf("RING_NODES=127.0.0.1:%d,127.0.0.1:%d\n", base, base+1)
	var printed []byte
	if !testutil.Eventually(10*time.Second, 10*time.Millisecond, func() bool {
		printed, _ = os.ReadFile(stdout)
		return strings.Contains(string(printed), want)
	}) {
		t.Fatalf("no %q on the launcher's output:\n%s", want, printed)
	}
	for i := 0; i < 2; i++ {
		url := fmt.Sprintf("http://127.0.0.1:%d/status", httpBase+i)
		var err error
		if !testutil.Eventually(10*time.Second, 10*time.Millisecond, func() bool {
			var resp *http.Response
			if resp, err = http.Get(url); err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = errors.New(resp.Status)
				}
			}
			return err == nil
		}) {
			t.Fatalf("child %d does not answer %s: %v", i, url, err)
		}
	}
	if l.kids = childrenOf(l.cmd.Process.Pid); len(l.kids) != 2 {
		t.Fatalf("the launcher has children %v, want two", l.kids)
	}
	return l
}

// exit waits up to limit for the launcher to exit and returns its exit
// status.
func (l *launcher) exit(t *testing.T, limit time.Duration) int {
	t.Helper()
	select {
	case <-l.exited:
		return l.cmd.ProcessState.ExitCode()
	case <-time.After(limit):
		t.Fatalf("the launcher is still running after %v", limit)
		return -1
	}
}

// noChildLeft fails t if a child of the exited launcher still exists,
// even as a zombie: the launcher reaps what it started.
func (l *launcher) noChildLeft(t *testing.T) {
	t.Helper()
	for _, pid := range l.kids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("child %d outlived the launcher (%v)", pid, err)
		}
	}
}

// freePorts returns the first of n consecutive free localhost ports,
// below the kernel's ephemeral range, where no outgoing connection of
// another test can take one before the launcher's children bind it.
func freePorts(t *testing.T, n int) int {
	t.Helper()
	for attempt := 0; attempt < 100; attempt++ {
		base := 20000 + rand.Intn(12000)
		var lns []net.Listener
		for i := 0; i < n; i++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
			if err != nil {
				break
			}
			lns = append(lns, ln)
		}
		for _, ln := range lns {
			ln.Close()
		}
		if len(lns) == n {
			return base
		}
	}
	t.Fatalf("found no %d consecutive free ports", n)
	return 0
}

// childrenOf returns the processes whose parent is pid.
func childrenOf(pid int) []int {
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	var kids []int
	for _, p := range stats {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		// pid (comm) state ppid ...: comm may hold spaces, not ")".
		fields := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
		if len(fields) > 1 && fields[1] == strconv.Itoa(pid) {
			child, _ := strconv.Atoi(filepath.Base(filepath.Dir(p)))
			kids = append(kids, child)
		}
	}
	return kids
}
