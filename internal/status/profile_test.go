package status

import (
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"testing"
)

// TestProfilesOneRequestAway fetches the profile routes the way their
// consumers do: `go tool pprof` reads the heap and a one-second CPU
// profile off a served runner, the goroutine dump names the runner's
// loop, the execution trace has bytes in it, and the index names every
// profile the runtime has.
func TestProfilesOneRequestAway(t *testing.T) {
	if testing.Short() {
		t.Skip("collects a CPU profile and a trace, one second each, and runs go tool pprof")
	}
	_, addrs := startObservedCluster(t, oneNode)
	base := "http://" + addrs[0] + "/debug/pprof/"
	get := func(path string) (string, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("%s: %s, %v: %.200s", path, resp.Status, err, body)
		}
		return resp.Header.Get("Content-Type"), string(body)
	}

	index := func() string { _, body := get(""); return body }()
	for _, p := range pprof.Profiles() {
		if !strings.Contains(index, "\t"+p.Name()+"\n") {
			t.Fatalf("the index does not list %q:\n%s", p.Name(), index)
		}
	}
	if ctype, body := get("goroutine?debug=2"); !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(body, "core.(*Runner).loop") {
		t.Fatalf("goroutine dump (%s) does not name the runner loop:\n%.2000s", ctype, body)
	}
	if ctype, body := get("trace?seconds=1"); ctype != "application/octet-stream" || len(body) == 0 {
		t.Fatalf("execution trace: %s, %d bytes", ctype, len(body))
	}

	for _, profile := range []string{"heap", "profile?seconds=1"} {
		cmd := exec.Command("go", "tool", "pprof", "-top", base+profile)
		// pprof keeps a copy of what it fetches; not in $HOME/pprof.
		cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+t.TempDir())
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go tool pprof -top %s: %v\n%s", base+profile, err, out)
		}
	}
}
