package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func fixtureDir(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestHotPathAlloc(t *testing.T) {
	RunFixture(t, HotPathAlloc, fixtureDir("hotpathalloc"), "fixture/hotpathalloc")
}

func TestSimDeterminism(t *testing.T) {
	// The fixture impersonates a restricted import path.
	RunFixture(t, SimDeterminism, fixtureDir("simdeterminism"), "ring/internal/core")
}

func TestSimDeterminismUnrestrictedPath(t *testing.T) {
	// The same sources under an unrestricted path produce no findings.
	pkg, err := LoadDir(fixtureDir("simdeterminism"), "fixture/unrestricted")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := RunAnalyzers(pkg, []*Analyzer{SimDeterminism})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic outside restricted packages: %s: %s", pkg.Fset.Position(d.Pos), d.Message)
	}
}

func TestSleepyTest(t *testing.T) {
	RunFixture(t, SleepyTest, fixtureDir("sleepytest"), "fixture/sleepytest")
}

func TestDurablePath(t *testing.T) {
	RunFixture(t, DurablePath, fixtureDir("durablepath"), "fixture/durablepath")
}

func TestAckOrder(t *testing.T) {
	RunFixture(t, AckOrder, fixtureDir("ackorder"), "fixture/ackorder")
}

func TestLockGuard(t *testing.T) {
	RunFixture(t, LockGuard, fixtureDir("lockguard"), "fixture/lockguard")
}

func TestGoroutineLife(t *testing.T) {
	RunFixture(t, GoroutineLife, fixtureDir("goroutinelife"), "fixture/goroutinelife")
}

// TestAckOrderChaosSiteWouldFire asserts the //ring:ackok exemption on
// the deliberate ChaosUnsafeAck early-commit in internal/core is load-
// bearing: with the directive ignored, ackorder flags that exact line.
// This keeps the exemption honest — if the chaos block is ever
// restructured so the unsafe ack is no longer on a handler path, the
// stale directive shows up here.
func TestAckOrderChaosSiteWouldFire(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks internal/core")
	}
	pkgs, err := Load("../..", "./internal/core")
	if err != nil {
		t.Fatalf("load core: %v", err)
	}
	var core *Package
	for _, pkg := range pkgs {
		if pkg.PkgPath == "ring/internal/core" {
			core = pkg
		}
	}
	if core == nil {
		t.Fatal("ring/internal/core not loaded")
	}

	honored, err := RunAnalyzers(core, []*Analyzer{AckOrder})
	if err != nil {
		t.Fatalf("run (directives honored): %v", err)
	}
	for _, d := range honored {
		t.Errorf("unexpected finding with exemptions honored: %s: %s", core.Fset.Position(d.Pos), d.Message)
	}

	ignored, err := RunAnalyzersIgnoring(core, []*Analyzer{AckOrder}, map[string]bool{"ackok": true})
	if err != nil {
		t.Fatalf("run (ackok ignored): %v", err)
	}
	found := false
	for _, d := range ignored {
		pos := core.Fset.Position(d.Pos)
		if filepath.Base(pos.Filename) != "coord.go" {
			continue
		}
		line := sourceLine(t, pos.Filename, pos.Line)
		if strings.Contains(line, "ring:ackok") && strings.Contains(line, "commitEntry") {
			found = true
		}
	}
	if !found {
		t.Errorf("ackorder did not flag the ChaosUnsafeAck commitEntry line with ackok ignored; got %d findings:", len(ignored))
		for _, d := range ignored {
			t.Logf("  %s: %s", core.Fset.Position(d.Pos), d.Message)
		}
	}
}

// sourceLine reads one line (1-based) of a source file.
func sourceLine(t *testing.T, filename string, n int) string {
	t.Helper()
	data, err := os.ReadFile(filename)
	if err != nil {
		t.Fatalf("read %s: %v", filename, err)
	}
	lines := strings.Split(string(data), "\n")
	if n < 1 || n > len(lines) {
		return ""
	}
	return lines[n-1]
}

// TestRepoClean runs the full suite over the real module and demands
// zero findings: the committed tree must satisfy its own lint gate.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	start := time.Now()
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.PkgPath, terr)
		}
		diags, err := RunAnalyzers(pkg, Analyzers())
		if err != nil {
			t.Fatalf("%s: %v", pkg.PkgPath, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s: %s", pkg.PkgPath, pkg.Fset.Position(d.Pos), d.Message)
		}
	}
	// Wall-clock budget: the suite must stay fast enough to run on
	// every push. repoCleanBudget is build-tag-selected (60s, 180s
	// under -race).
	if elapsed := time.Since(start); elapsed > repoCleanBudget {
		t.Errorf("full-module lint sweep took %v, budget %v: analyzer perf regressed", elapsed, repoCleanBudget)
	}
}

func TestMatchDirective(t *testing.T) {
	cases := []struct {
		comment, name string
		want          bool
	}{
		{"//ring:hotpath", "hotpath", true},
		{"// ring:hotpath", "hotpath", true},
		{"//ring:hotpath reason text", "hotpath", true},
		{"//ring:hotpath-stop", "hotpath", false},
		{"//ring:hotpath-stop", "hotpath-stop", true},
		{"//ring:hotpathx", "hotpath", false},
		{"// regular comment", "hotpath", false},
		{"/*ring:hotpath*/", "hotpath", false},
	}
	for _, c := range cases {
		if got := matchDirective(c.comment, c.name); got != c.want {
			t.Errorf("matchDirective(%q, %q) = %v, want %v", c.comment, c.name, got, c.want)
		}
	}
}
