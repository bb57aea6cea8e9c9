package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// parseBody parses src as the body of func f() { ... } without type
// checking it: the walk's control flow needs no types.
func parseBody(t testing.TB, src string) *ast.BlockStmt {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "t.go", "package p\nfunc f() {\n"+src+"\n}\n", parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

func TestExitReachableShapes(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"empty", ``, true},
		{"straight line", `x := 1; _ = x`, true},
		{"if both arms", `if c() { a() } else { b() }`, true},
		{"infinite loop", `for { a() }`, false},
		{"infinite loop with break", `for { if c() { break }; a() }`, true},
		{"infinite loop with return", `for { if c() { return } }`, true},
		{"cond loop", `for c() { a() }`, true},
		{"range loop", `for _, v := range xs { use(v) }`, true},
		{"labeled break from nested", `L: for { for { break L } }`, true},
		{"labeled break wrong loop", `L: for { M: for { break M } }`, false},
		{"continue only", `for { continue }`, false},
		{"select no default", `for { select { case <-ch: } }`, false},
		{"select with exit case", `for { select { case <-done: return; case <-ch: } }`, true},
		{"select empty blocks forever", `select {}`, false},
		{"return", `return`, true},
		{"panic terminates", `panic("x")`, true},
		{"os.Exit terminates", `os.Exit(1)`, true},
		{"switch no default falls through", `switch x { case 1: for {} }`, true},
		{"switch default all loop", `switch x { case 1: for {}; default: for {} }`, false},
		{"type switch", `switch x.(type) { case int: return }`, true},
	}
	pass := &Pass{Info: newInfo()}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := !runsForever(pass, parseBody(t, c.src)); got != c.want {
				t.Errorf("exit reachable in %q = %v, want %v", c.src, got, c.want)
			}
		})
	}
}

// TestEveryPathPasses checks the walk's joins through the question
// lockguard asks of them: is x.mu held on every path that reaches the
// end of the function or a return?
func TestEveryPathPasses(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"straight line", `x.mu.Lock(); emit()`, true},
		{"one arm misses", `if c() { x.mu.Lock() }; emit()`, false},
		{"both arms pass", `if c() { x.mu.Lock() } else { x.mu.Lock() }; emit()`, true},
		{"early return skips", `if c() { return }; x.mu.Lock()`, false},
		{"barrier in if init", `if x.mu.Lock(); c() { emit() } else { emit() }`, true},
		{"loop may skip", `for c() { x.mu.Lock() }`, false},
		{"switch no default skips", `switch c() { case true: x.mu.Lock() }`, false},
		{"switch default covers", `switch c() { case true: x.mu.Lock(); default: x.mu.Lock() }`, true},
		{"deferred unlock holds to exit", `x.mu.Lock(); defer x.mu.Unlock(); emit()`, true},
		{"select all cases pass", `select { case <-a: x.mu.Lock(); case <-b: x.mu.Lock() }`, true},
		{"select one case misses", `select { case <-a: x.mu.Lock(); case <-b: }`, false},
	}
	src := "package p\n\nimport \"sync\"\n\ntype T struct{ mu sync.Mutex }\n\nvar a, b chan int\n\nfunc c() bool { return false }\nfunc emit() {}\n"
	for i, c := range cases {
		src += fmt.Sprintf("func (x *T) f%d() {\n%s\n}\n", i, c.src)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, "fixture/walk")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, err := range pkg.TypeErrors {
		t.Fatalf("type error: %v", err)
	}
	pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Pkg, Info: pkg.Info}
	methods := map[string]*ast.FuncDecl{}
	for _, d := range pkg.Files[0].Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
			methods[fd.Name.Name] = fd
		}
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fd := methods[fmt.Sprintf("f%d", i)]
			g := &lockGuard{pass: pass}
			end := join(g.stmt(fd.Body, locks{}), g.exit)
			x := lockKey{pkg.Info.Defs[fd.Recv.List[0].Names[0]], ".mu"}
			if got := end[x]; got != c.want {
				t.Errorf("x.mu held on every path through %q = %v, want %v", c.src, got, c.want)
			}
		})
	}
}

// FuzzStatementWalk asserts the walk ends, without panicking, on any
// parseable function body: loops re-walked to a fixpoint, labels that
// name nothing, break, continue and fallthrough out of place.
func FuzzStatementWalk(f *testing.F) {
	for _, s := range []string{
		``,
		`x := 1`,
		`if a { b() } else if c { d() }`,
		`for i := 0; i < 10; i++ { continue }`,
		`for { select { case <-a: return; default: } }`,
		`L: for { for range xs { break L } }`,
		`switch x { case 1, 2: fallthrough; case 3: default: }`,
		`switch v := x.(type) { case int: _ = v }`,
		`goto M; M: goto Q`,
		`defer f(); go g(); ch <- 1; <-ch`,
		`break; continue; fallthrough`,
		`func() { for {} }()`,
	} {
		f.Add(s)
	}
	pass := &Pass{Info: newInfo()}
	f.Fuzz(func(t *testing.T, body string) {
		file, err := parser.ParseFile(token.NewFileSet(), "fuzz.go", "package p\nfunc f() {\n"+body+"\n}\n", parser.SkipObjectResolution)
		if err != nil {
			t.Skip() // not parseable as a function body
		}
		fd, ok := file.Decls[0].(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			t.Skip()
		}
		runsForever(pass, fd.Body)
	})
}
