package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/status"
	"ring/internal/transport"
)

const nodeCount = shards + redundant

// buildRingd compiles cmd/ringd into dir and returns the binary's path
// and how long the build took.
func buildRingd(dir string) (string, time.Duration, error) {
	bin := filepath.Join(dir, "ringd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "ring/cmd/ringd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ring/cmd/ringd: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// freePorts finds n consecutive loopback TCP ports that are free right
// now, starting the search at a port derived from this process's ID so
// that concurrent benchmark runs spread out. The range stays below the
// kernel's ephemeral ports and away from cluster.sh's 7400s and the
// 7100/8180 ports the verify notes use.
func freePorts(n, attempt int) (int, error) {
	const lo, hi = 20000, 32000
	base := lo + (os.Getpid()*37+attempt*n)%(hi-lo-n)
	for tries := 0; tries < 200; tries++ {
		ok := true
		for i := 0; i < n && ok; i++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
			if err != nil {
				ok = false
				break
			}
			ln.Close()
		}
		if ok {
			return base, nil
		}
		base += n
		if base+n >= hi {
			base = lo
		}
	}
	return 0, fmt.Errorf("no %d consecutive free ports in %d-%d", n, lo, hi)
}

// deployment is one running five-process cluster.
type deployment struct {
	launcher *exec.Cmd
	waited   chan struct{} // closed once launcher.Wait returned
	pids     []int         // the five ringd children, in no particular order
	nodes    []string      // fabric addresses in node-ID order
	http     []string      // monitoring addresses in node-ID order
	dataDir  string        // "" when volatile
	log      *os.File
	stopOnce sync.Once
}

// launched tracks deployments and scratch directories that must not
// outlive the process, whatever path it exits by.
var launched struct {
	mu   sync.Mutex
	deps map[*deployment]bool
	dirs map[string]bool
}

func track(d *deployment, on bool) {
	launched.mu.Lock()
	defer launched.mu.Unlock()
	if launched.deps == nil {
		launched.deps = make(map[*deployment]bool)
	}
	if on {
		launched.deps[d] = true
	} else {
		delete(launched.deps, d)
	}
}

// scratchDir creates a directory under out that cleanupAll removes.
func scratchDir(out, pattern string) (string, error) {
	dir, err := os.MkdirTemp(out, pattern)
	if err != nil {
		return "", err
	}
	launched.mu.Lock()
	if launched.dirs == nil {
		launched.dirs = make(map[string]bool)
	}
	launched.dirs[dir] = true
	launched.mu.Unlock()
	return dir, nil
}

func removeScratch(dir string) {
	launched.mu.Lock()
	delete(launched.dirs, dir)
	launched.mu.Unlock()
	os.RemoveAll(dir)
}

// cleanupAll kills every live deployment and removes every scratch
// directory. It is safe to call more than once and from a signal
// handler goroutine.
func cleanupAll() {
	launched.mu.Lock()
	deps := make([]*deployment, 0, len(launched.deps))
	for d := range launched.deps {
		deps = append(deps, d)
	}
	dirs := make([]string, 0, len(launched.dirs))
	for d := range launched.dirs {
		dirs = append(dirs, d)
	}
	launched.mu.Unlock()
	for _, d := range deps {
		d.discard()
	}
	for _, d := range dirs {
		removeScratch(d)
	}
}

// launch starts `ringd -launch 5` for a workload and returns once all
// five nodes answer /status as serving. out holds the log and, for a
// durable workload, the data directory.
func launch(ringd, out string, w *spec) (*deployment, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := launchOnce(ringd, out, w, attempt)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func launchOnce(ringd, out string, w *spec, attempt int) (*deployment, error) {
	base, err := freePorts(2*nodeCount, attempt)
	if err != nil {
		return nil, err
	}
	httpBase := base + nodeCount
	args := []string{
		"-launch", strconv.Itoa(nodeCount),
		"-base-port", strconv.Itoa(base),
		"-http-base", strconv.Itoa(httpBase),
		"-groups", "1",
		"-shards", strconv.Itoa(shards),
		"-redundant", strconv.Itoa(redundant),
		"-memgests", "rep3,srs3.2",
		"-block-size", strconv.Itoa(blockSize),
	}
	d := &deployment{waited: make(chan struct{})}
	if w.durable {
		if d.dataDir, err = scratchDir(out, "data-"); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", d.dataDir, "-fsync", "always")
	}
	if d.log, err = os.OpenFile(filepath.Join(out, "ringd.log"), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(ringd, args...)
	cmd.Stdout, cmd.Stderr = d.log, d.log
	// Own process group, so that one signal reaches the launcher and its
	// five children; and a SIGTERM if this process dies without cleaning
	// up, on which the launcher stops its children.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGTERM}
	if err = cmd.Start(); err != nil {
		d.log.Close()
		return nil, fmt.Errorf("start ringd: %w", err)
	}
	d.launcher = cmd
	track(d, true)
	go func() {
		_ = cmd.Wait() // the exit status of a cluster we kill carries nothing
		close(d.waited)
	}()
	for i := 0; i < nodeCount; i++ {
		d.nodes = append(d.nodes, fmt.Sprintf("127.0.0.1:%d", base+i))
		d.http = append(d.http, fmt.Sprintf("127.0.0.1:%d", httpBase+i))
	}
	if err := d.awaitServing(10 * time.Second); err != nil {
		d.discard()
		return nil, err
	}
	if d.pids, err = childrenOf(cmd.Process.Pid); err != nil || len(d.pids) != nodeCount {
		d.discard()
		return nil, fmt.Errorf("found %d ringd children of the launcher, want %d (%v)", len(d.pids), nodeCount, err)
	}
	return d, nil
}

// awaitServing polls every node's /status until all report serving.
func (d *deployment) awaitServing(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	hc := &http.Client{Timeout: time.Second}
	for i := 0; i < len(d.http); {
		select {
		case <-d.waited:
			return fmt.Errorf("ringd launcher exited while starting; see %s", d.log.Name())
		default:
		}
		var snap status.Snapshot
		resp, err := hc.Get("http://" + d.http[i] + "/status")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
		}
		if err == nil && snap.Serving {
			i++
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %d not serving after %v (%v)", i, limit, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// fabric returns a TCP fabric that maps node/<i> to the deployment.
func (d *deployment) fabric() *transport.TCPFabric {
	f := transport.NewTCPFabric()
	for i, a := range d.nodes {
		f.Map(core.NodeAddr(proto.NodeID(i)), a)
	}
	return f
}

// stop ends the cluster and waits until every process is gone. With
// graceful set, nodes get SIGTERM first and close their durable stores
// cleanly; either way the whole process group is killed at the end.
func (d *deployment) stop(graceful bool) {
	d.stopOnce.Do(func() {
		pgid := d.launcher.Process.Pid
		if graceful {
			_ = d.launcher.Process.Signal(syscall.SIGTERM)
			select {
			case <-d.waited:
			case <-time.After(5 * time.Second):
			}
		}
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
		<-d.waited
		// The children are not ours to wait for: killed, they pass to
		// init. Poll until each has ended, that is, is gone or a zombie
		// that only awaits init's reaping (which can take seconds).
		for _, pid := range d.pids {
			for i := 0; i < 1000 && processRuns(pid); i++ {
				time.Sleep(time.Millisecond)
			}
		}
		d.log.Close()
		track(d, false)
	})
}

// discard kills the cluster and removes its data directory.
func (d *deployment) discard() {
	d.stop(false)
	if d.dataDir != "" {
		removeScratch(d.dataDir)
	}
}

func processRuns(pid int) bool {
	st, err := readProcStat(pid)
	return err == nil && st.state != 'Z'
}

// procStat is the part of /proc/<pid>/stat the benchmark reads.
type procStat struct {
	state byte
	ppid  int
	ticks uint64 // utime + stime in clock ticks
}

func readProcStat(pid int) (procStat, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	return parseProcStat(string(b))
}

// parseProcStat parses one /proc/<pid>/stat line. The command name is
// in parentheses and may itself hold spaces and parentheses, so fields
// are counted from the last ')'.
func parseProcStat(line string) (procStat, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return procStat{}, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(line[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("short stat line")
	}
	ppid, err1 := strconv.Atoi(f[1])
	ut, err2 := strconv.ParseUint(f[11], 10, 64)
	st, err3 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return procStat{}, fmt.Errorf("malformed stat fields")
	}
	return procStat{state: f[0][0], ppid: ppid, ticks: ut + st}, nil
}

// childrenOf lists the live processes whose parent is pid.
func childrenOf(pid int) ([]int, error) {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range ents {
		p, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if st, err := readProcStat(p); err == nil && st.ppid == pid {
			out = append(out, p)
		}
	}
	return out, nil
}

// clockTick is the length of one /proc CPU tick: USER_HZ is 100 on
// every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime sums utime+stime over pids.
func cpuTime(pids []int) time.Duration {
	var ticks uint64
	for _, p := range pids {
		if st, err := readProcStat(p); err == nil {
			ticks += st.ticks
		}
	}
	return time.Duration(ticks) * clockTick
}

// rssPeakMB sums VmHWM, the peak resident set size, over pids.
func rssPeakMB(pids []int) float64 {
	var kb uint64
	for _, p := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					v, _ := strconv.ParseUint(f[0], 10, 64)
					kb += v
				}
			}
		}
	}
	return float64(kb) / 1024
}

// scrape fetches /debug/ringvars from every node.
func (d *deployment) scrape() ([]status.Ringvars, error) {
	out := make([]status.Ringvars, len(d.http))
	for i, a := range d.http {
		rv, err := status.FetchRingvars(a)
		if err != nil {
			return nil, err
		}
		out[i] = rv
	}
	return out, nil
}

// fsTypeOf returns the filesystem type of the mount holding path.
func fsTypeOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fstype := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fstype = len(mp), f[2]
		}
	}
	return fstype
}
