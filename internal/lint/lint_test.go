package lint

import (
	"path/filepath"
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

func TestLockGuard(t *testing.T) {
	RunFixture(t, LockGuard, fixtureDir("lockguard"), "fixture/lockguard")
}

func TestGoroutineLife(t *testing.T) {
	RunFixture(t, GoroutineLife, fixtureDir("goroutinelife"), "fixture/goroutinelife")
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
	// every push. repoCleanBudget is build-tag-selected (40s, 75s
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
