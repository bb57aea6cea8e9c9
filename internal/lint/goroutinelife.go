package lint

import "go/ast"

// GoroutineLife checks goroutine lifecycle hygiene in non-test code:
//
//  1. Every goroutine needs a shutdown path: some path through the
//     spawned body must reach its end or a return (lockguard's
//     statement walk answers it). A `for { ... }` with no way out runs
//     until process death, which in a node that is supposed to be
//     Close-able is a leak (and under the sim harness, a determinism
//     hazard). The body is resolved conservatively: a function literal
//     directly, or a same-package declared function; a goroutine
//     running another package's code is out of scope.
//  2. time.After and time.Tick allocate a timer/ticker that is never
//     collected before firing; inside a loop that is an unbounded
//     leak. Loops must hoist a time.NewTimer/NewTicker instead.
//
// //ring:goroutineok (line or enclosing function doc) exempts a spawn
// or timer with a justification — e.g. a worker whose lifetime really
// is the process.
var GoroutineLife = &Analyzer{
	Name: "goroutinelife",
	Doc:  "goroutines have a reachable shutdown path; no time.After/time.Tick inside loops",
	Run:  runGoroutineLife,
}

func runGoroutineLife(pass *Pass) error {
	decls := funcDecls(pass)
	exemptAt := func(n ast.Node) bool {
		return pass.lineDirective(n.Pos(), "goroutineok") || enclosingFuncHasDirective(pass, n.Pos(), "goroutineok")
	}

	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if exemptAt(n) {
					return true
				}
				for _, fn := range callees(pass, decls, n.Call) {
					name := "func literal"
					if fd, ok := fn.(*ast.FuncDecl); ok {
						name = fd.Name.Name
					}
					if runsForever(pass, funcBody(fn)) {
						pass.Reportf(n.Pos(), "goroutine %s has no shutdown path: its exit is unreachable", name)
					}
				}
			case *ast.CallExpr:
				name, ok := calleeFromPkg(pass.Info, n, "time", "After", "Tick")
				if !ok {
					return true
				}
				inLoop := false
				for _, anc := range stack {
					switch anc.(type) {
					case *ast.ForStmt, *ast.RangeStmt:
						inLoop = true
					}
				}
				if inLoop && !exemptAt(n) {
					pass.Reportf(n.Pos(), "time.%s in a loop leaks a timer per iteration; hoist a time.NewTimer/NewTicker", name)
				}
			}
			return true
		})
	}
	return nil
}

// runsForever reports whether no path through body reaches its end or
// a return: lockguard's walk, with no mutex to track. A for with no
// condition ends every path through it unless a break leaves it (a
// break in a select or switch leaves only that), and so does a select
// with no clauses.
func runsForever(pass *Pass, body *ast.BlockStmt) bool {
	g := &lockGuard{pass: pass}
	return join(g.stmt(body, locks{}), g.exit) == nil
}
