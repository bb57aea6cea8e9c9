package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses src as the body of func f() { ... } and returns it.
func parseBody(t testing.TB, src string) *ast.BlockStmt {
	t.Helper()
	file := "package p\nfunc f() {\n" + src + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", file, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// build parses and builds, asserting basic graph sanity: every edge is
// symmetric between Succs and Preds.
func build(t testing.TB, src string) *Graph {
	t.Helper()
	g := Build(parseBody(t, src))
	for _, n := range g.Nodes {
		for _, s := range n.Succs {
			found := false
			for _, p := range s.Preds {
				if p == n {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric edge in CFG for %q", src)
			}
		}
	}
	return g
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
		{"loop ending in panic", `for { panic("x") }`, true},
		{"os.Exit terminates", `os.Exit(1)`, true},
		{"goto over loop", `goto L; for { }; L: a()`, true},
		{"goto backward loop", `L: a(); goto L`, false},
		{"switch no default falls through", `switch x { case 1: for {} }`, true},
		{"switch default all loop", `switch x { case 1: for {}; default: for {} }`, false},
		{"type switch", `switch x.(type) { case int: return }`, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := build(t, c.src)
			if got := g.ExitReachable(); got != c.want {
				t.Errorf("ExitReachable(%q) = %v, want %v", c.src, got, c.want)
			}
		})
	}
}

// callNamed returns a stop predicate matching nodes containing a call
// to the named function.
func callNamed(name string) func(*Node) bool {
	return func(n *Node) bool {
		found := false
		ScanNode(n, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
			return true
		})
		return found
	}
}

// TestEveryPathPasses checks the CFG's branch shapes through the
// must-analysis they have to support: every Entry -> Exit path flows
// through a barrier exactly when no barrier-avoiding path reaches Exit.
func TestEveryPathPasses(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"straight line", `barrier(); emit()`, true},
		{"one arm misses", `if c() { barrier() }; emit()`, false},
		{"both arms pass", `if c() { barrier() } else { barrier() }; emit()`, true},
		{"early return skips", `if c() { return }; barrier()`, false},
		{"barrier in cond", `if barrier() { emit() } else { emit() }`, true},
		{"loop may skip", `for c() { barrier() }`, false},
		{"switch no default skips", `switch x { case 1: barrier() }`, false},
		{"switch default covers", `switch x { case 1: barrier(); default: barrier() }`, true},
		{"defer is not a pass", `defer barrier()`, true}, // the defer STATEMENT executes on every path
		{"select all cases pass", `select { case <-a: barrier(); case <-b: barrier() }`, true},
		{"select one case misses", `select { case <-a: barrier(); case <-b: }`, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := build(t, c.src)
			if got := !g.ReachableAvoiding(g.Entry, callNamed("barrier"))[g.Exit]; got != c.want {
				t.Errorf("every path of %q passes the barrier = %v, want %v", c.src, got, c.want)
			}
		})
	}
}

func TestReachableAvoidingStopsAtBarrier(t *testing.T) {
	// emit() after the barrier must not be bare-reachable; the one in
	// the unguarded arm must.
	g := build(t, `
if c() {
	barrier()
	emit()
} else {
	emit()
}
`)
	reach := g.ReachableAvoiding(g.Entry, callNamed("barrier"))
	var bare, guarded int
	for n := range reach {
		if callNamed("emit")(n) {
			bare++
		}
	}
	for _, n := range g.Nodes {
		if callNamed("emit")(n) && !reach[n] {
			guarded++
		}
	}
	if bare != 1 || guarded != 1 {
		t.Errorf("bare=%d guarded=%d, want 1 and 1", bare, guarded)
	}
}

func TestNodeGranularity(t *testing.T) {
	// The if condition and its body are separate nodes: the barrier
	// node is the condition, and is itself reachable (its events run),
	// but nothing past it is.
	g := build(t, `
if barrier() {
	emit()
}
emit()
`)
	reach := g.ReachableAvoiding(g.Entry, callNamed("barrier"))
	for n := range reach {
		if callNamed("emit")(n) {
			t.Errorf("emit reachable avoiding barrier; condition node should block both arms")
		}
	}
}

func TestDeferCollected(t *testing.T) {
	g := build(t, `
mu.Lock()
defer mu.Unlock()
work()
`)
	defers := 0
	for _, n := range g.Nodes {
		if _, ok := n.Ast.(*ast.DeferStmt); ok {
			defers++
		}
	}
	if defers != 1 {
		t.Errorf("got %d defer nodes, want 1", defers)
	}
	if !g.ExitReachable() {
		t.Error("exit unreachable")
	}
}
