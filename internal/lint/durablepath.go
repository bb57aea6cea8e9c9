package lint

import (
	"go/ast"
	"go/types"
)

// durablePkgs are the storage-engine packages whose error returns are
// load-bearing: a dropped error from a WAL append, a Bitcask put, or a
// group-commit sync silently converts "durable" into "probably
// durable", the exact bug class the fsyncgate chaos schedule exists to
// catch at runtime. This catches it at compile time instead.
var durablePkgs = map[string]bool{
	"ring/internal/wal":     true,
	"ring/internal/bitcask": true,
	"ring/internal/replog":  true,
}

// DurablePath forbids discarding the error of any error-returning
// call into the durable storage packages (internal/wal,
// internal/bitcask, internal/replog): as a bare expression statement,
// through a blank assignment, or inside a go/defer statement whose
// result nobody can observe. Test files are checked too — a
// durability test that ignores Close is testing the page cache.
//
// The escape hatch is //ring:durableok on the call's line or the
// enclosing function's doc comment, for the few sites where dropping
// the error is the design (e.g. closing an engine that is already
// known damaged on a teardown path).
var DurablePath = &Analyzer{
	Name: "durablepath",
	Doc:  "no discarded errors from internal/wal, internal/bitcask, or internal/replog calls (//ring:durableok to justify)",
	Run:  runDurablePath,
}

func runDurablePath(pass *Pass) error {
	report := func(call *ast.CallExpr, fn *types.Func, how string) {
		if pass.lineDirective(call.Pos(), "durableok") ||
			enclosingFuncHasDirective(pass, call.Pos(), "durableok") {
			return
		}
		pass.Reportf(call.Pos(), "durable error discarded: %s.%s returns an error that %s (check it, or justify with //ring:durableok)",
			fn.Pkg().Name(), fn.Name(), how)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					if fn, ok := durableErrCall(pass, call); ok {
						report(call, fn, "this statement drops")
					}
				}
			case *ast.GoStmt:
				if fn, ok := durableErrCall(pass, st.Call); ok {
					report(st.Call, fn, "a go statement cannot observe")
				}
			case *ast.DeferStmt:
				if fn, ok := durableErrCall(pass, st.Call); ok {
					report(st.Call, fn, "a defer statement cannot observe")
				}
			case *ast.AssignStmt:
				// `v, _ := call()` for a single multi-result call, or a
				// blank slot in a parallel assignment. The error is
				// always the last result, so only the last (or the
				// call's own) LHS slot matters.
				if len(st.Rhs) == 1 {
					call, ok := st.Rhs[0].(*ast.CallExpr)
					if !ok {
						return true
					}
					if fn, ok := durableErrCall(pass, call); ok && isBlank(st.Lhs[len(st.Lhs)-1]) {
						report(call, fn, "a blank assignment drops")
					}
					return true
				}
				for i, rhs := range st.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || i >= len(st.Lhs) {
						continue
					}
					if fn, ok := durableErrCall(pass, call); ok && isBlank(st.Lhs[i]) {
						report(call, fn, "a blank assignment drops")
					}
				}
			}
			return true
		})
	}
	return nil
}

// durableErrCall reports whether call resolves to a function or method
// of one of the durable storage packages whose last result is error.
// Interface methods (e.g. wal.FS) resolve to the interface's package,
// so fakes and wrappers are covered at the call site that matters.
func durableErrCall(pass *Pass, call *ast.CallExpr) (*types.Func, bool) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || !durablePkgs[fn.Pkg().Path()] {
		return nil, false
	}
	res := fn.Type().(*types.Signature).Results()
	if res.Len() == 0 {
		return nil, false
	}
	last := res.At(res.Len() - 1).Type()
	return fn, types.Identical(last, types.Universe.Lookup("error").Type())
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
