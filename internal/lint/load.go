package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Package is one loaded, type-checked unit ready for analysis. The
// syntax includes the package's in-package _test.go files; external
// test packages (package foo_test) load as their own Package.
type Package struct {
	PkgPath    string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	TypeErrors []error
}

// newInfo allocates the types.Info maps every analyzer relies on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	DepOnly      bool
	ForTest      string
	Match        []string
}

// Load lists, parses and type-checks the packages matching patterns in
// the module rooted at (or containing) dir. Dependencies — including
// test-only dependencies — are imported from compiled export data
// produced by `go list -export`, so loading works offline and never
// re-type-checks the standard library from source.
func Load(dir string, patterns ...string) ([]*Package, error) {
	out, err := runGoList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := map[string]string{}
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		// Synthesized test variants carry ForTest (and a bracketed
		// import path); only plain packages contribute export data.
		if p.ForTest == "" && p.Export != "" && !strings.Contains(p.ImportPath, " ") {
			exports[p.ImportPath] = p.Export
		}
		if len(p.Match) > 0 && p.ForTest == "" && !p.DepOnly &&
			!strings.Contains(p.ImportPath, " ") && !strings.HasSuffix(p.ImportPath, ".test") {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	})

	var pkgs []*Package
	for _, tgt := range targets {
		if len(tgt.GoFiles)+len(tgt.TestGoFiles)+len(tgt.XTestGoFiles) == 0 {
			continue
		}
		base, err := check(fset, imp, tgt.ImportPath, tgt.Dir,
			append(append([]string{}, tgt.GoFiles...), tgt.TestGoFiles...))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, base)
		if len(tgt.XTestGoFiles) > 0 {
			// The external test package imports the test-augmented
			// package under test, which only exists as the source
			// check above — substitute it for the export data.
			sub := &substImporter{imp: imp, path: tgt.ImportPath, pkg: base.Pkg}
			xt, err := check(fset, sub, tgt.ImportPath+"_test", tgt.Dir, tgt.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, xt)
		}
	}
	return pkgs, nil
}

// runGoList runs `go list -export`, which compiles every dependency's
// export data into Go's build cache — and finds it there the next
// time, which is all the caching the loader needs.
func runGoList(dir string, patterns []string) ([]byte, error) {
	args := []string{
		"list", "-e", "-deps", "-test", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,TestGoFiles,XTestGoFiles,DepOnly,ForTest,Match",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	return out, nil
}

// check parses and type-checks one set of files as a package.
func check(fset *token.FileSet, imp types.Importer, pkgPath, dir string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", path, err)
		}
		files = append(files, f)
	}
	p := &Package{PkgPath: pkgPath, Fset: fset, Files: files, Info: newInfo()}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	p.Pkg, _ = conf.Check(pkgPath, fset, files, p.Info) // errors collected above
	return p, nil
}

// exportImporter returns a types importer that reads gc export data
// located by find (import path -> export file).
func exportImporter(fset *token.FileSet, find func(path string) (string, bool)) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := find(path)
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// substImporter substitutes one source-checked package (the package
// under test, augmented with its _test.go files) into an otherwise
// export-data-backed importer.
type substImporter struct {
	imp  types.Importer
	path string
	pkg  *types.Package
}

func (s *substImporter) Import(path string) (*types.Package, error) {
	if path == s.path {
		return s.pkg, nil
	}
	return s.imp.Import(path)
}

// LoadDir parses and type-checks a single directory of Go files as one
// package — the fixture loader for analyzer tests. pkgPath overrides
// the import path the analyzers observe, letting fixtures impersonate
// restricted paths like ring/internal/core. Imports resolve lazily via
// `go list -export` (standard library only, by construction of the
// fixtures).
func LoadDir(dir, pkgPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	fset := token.NewFileSet()
	return check(fset, exportImporter(fset, lazyExportFinder()), pkgPath, dir, names)
}

var (
	lazyMu      sync.Mutex
	lazyExports = map[string]string{}
)

// lazyExportFinder resolves an import path to its export file by
// shelling out to `go list -export` on first use, with a process-wide
// cache.
func lazyExportFinder() func(path string) (string, bool) {
	return func(path string) (string, bool) {
		lazyMu.Lock()
		defer lazyMu.Unlock()
		if f, ok := lazyExports[path]; ok {
			return f, f != ""
		}
		out, err := exec.Command("go", "list", "-e", "-export", "-f", "{{.Export}}", path).Output()
		f := strings.TrimSpace(string(out))
		if err != nil {
			f = ""
		}
		lazyExports[path] = f
		return f, f != ""
	}
}
