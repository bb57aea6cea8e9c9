package lint

import (
	"go/ast"

	"ring/internal/lint/flow"
)

// GoroutineLife checks goroutine lifecycle hygiene in non-test code:
//
//  1. Every goroutine needs a shutdown path. The spawned function's
//     CFG must be able to reach its exit — a return, a break out of
//     the loop, a select case that returns. A `for { ... }` with no
//     way out runs until process death, which in a node that is
//     supposed to be Close-able is a leak (and under the sim harness,
//     a determinism hazard). The body is resolved conservatively: a
//     function literal directly, or a same-package declared function;
//     a goroutine running another package's code is out of scope.
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
	cg := flow.NewCallGraph(pass.Pkg, pass.Info, pass.Files, pass.IsTestFile)
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
				for _, u := range cg.Callees(n.Call) {
					if !u.Graph.ExitReachable() {
						pass.Reportf(n.Pos(), "goroutine %s has no shutdown path: its exit is unreachable", u.Name)
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
