// Package lint implements ringlint, Ring's project-specific
// static-analysis suite. It locks in the invariants the determinism,
// durability and concurrency work bought — properties the compiler
// cannot see and reviewer vigilance cannot be trusted with:
//
//   - simdeterminism: the simulated packages (client, core, sim, srs)
//     never read wall-clock time or the global math/rand state, so
//     simnet runs stay reproducible.
//   - sleepytest: no bare time.Sleep in _test.go files — the flake
//     class the tickUntil/poll helpers eradicated.
//   - durablepath: no call into the durable storage packages
//     (internal/wal, internal/bitcask, internal/replog) discards its
//     error — a dropped fsync or append error silently un-durables an
//     acknowledged write.
//   - lockguard: mutex-guarded fields (inferred by majority of
//     accesses, or declared //ring:guardedby) are accessed under
//     their mutex, and no blocking operation — durable-storage or
//     network call, channel send/receive, select, sleep — runs while
//     a sync.Mutex/RWMutex is held.
//   - goroutinelife: goroutines spawned in non-test code have a
//     shutdown path (some path through the body reaches its end or a
//     return, by lockguard's statement walk), and time.After/time.Tick
//     never sit in a loop (the classic timer-leak shape).
//
// The paper's acknowledgement-ordering rule is not among them: it is
// two function signatures (replog.Quorum, core.Node.Flush) the compiler
// checks; see DESIGN.md section 7. Nor is the allocation-free message
// path: the AllocsPerRun pins count what it allocates at run time.
//
// The suite is built directly on go/ast and go/types (no external
// analysis framework: the module is dependency-free by policy), with
// packages loaded through `go list -export` so dependencies are
// imported from compiled export data exactly as go vet does. The
// driver lives in cmd/ringlint.
//
// # Directives
//
// Analyzers are steered by //ring: directive comments:
//
//	//ring:wallclock     exempts a function from simdeterminism (the
//	                     deliberate real-time boundary, e.g. Runner)
//	//ring:sleepok       exempts one sleep in a test (doc or same line)
//	//ring:durableok     exempts one durable-storage call (line or
//	                     enclosing function) from durablepath
//	//ring:guardedby     on a struct field: declares the sibling mutex
//	                     field guarding it (overrides inference)
//	//ring:lockok        exempts one access or blocking call (line or
//	                     enclosing function) from lockguard
//	//ring:goroutineok   exempts one goroutine spawn or timer-in-loop
//	                     (line or enclosing function) from
//	                     goroutinelife
//
// Every exemption is greppable: the directive is the audit trail.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one finding, positioned in the analyzed source. The
// Message carries an "<analyzer>: " prefix.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the import path the analyzers see. Fixture tests
	// override it to impersonate restricted paths.
	PkgPath string

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether f came from a _test.go file.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go")
}

// FileOf returns the *ast.File of this pass containing pos.
func (p *Pass) FileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// Analyzers is the full suite in the order ringlint runs it.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SimDeterminism,
		SleepyTest,
		DurablePath,
		LockGuard,
		GoroutineLife,
	}
}

// ---------------------------------------------------------------- directives

const directivePrefix = "ring:"

// hasDirective reports whether the comment group contains a
// //ring:<name> directive line (justification text after the name is
// allowed and encouraged).
func hasDirective(g *ast.CommentGroup, name string) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if matchDirective(c.Text, name) {
			return true
		}
	}
	return false
}

func matchDirective(comment, name string) bool {
	text, ok := strings.CutPrefix(comment, "//")
	if !ok {
		return false // a /* */ group is never a directive
	}
	text, ok = strings.CutPrefix(strings.TrimSpace(text), directivePrefix+name)
	if !ok {
		return false
	}
	// Exact name match: "ring:lockok-x" must not satisfy "lockok".
	// Anything after the name must be separated by space.
	return text == "" || text[0] == ' ' || text[0] == '\t'
}

// directiveArgs returns the whitespace-separated tokens following a
// //ring:<name> directive in g, and whether the directive is present.
// Parsing of meaningful arguments (vs trailing justification prose) is
// the caller's business.
func directiveArgs(g *ast.CommentGroup, name string) ([]string, bool) {
	if g == nil {
		return nil, false
	}
	for _, c := range g.List {
		if !matchDirective(c.Text, name) {
			continue
		}
		text, _ := strings.CutPrefix(c.Text, "//")
		text, _ = strings.CutPrefix(strings.TrimSpace(text), directivePrefix+name)
		return strings.Fields(text), true
	}
	return nil, false
}

// lineDirective reports whether a //ring:<name> directive comment sits
// on the same line as pos (trailing-comment exemption form).
func (p *Pass) lineDirective(pos token.Pos, name string) bool {
	f := p.FileOf(pos)
	if f == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	for _, g := range f.Comments {
		if p.Fset.Position(g.Pos()).Line != line {
			continue
		}
		if hasDirective(g, name) {
			return true
		}
	}
	return false
}

// fileDirective reports whether a //ring:<name> directive appears in a
// comment group above the package clause of f.
func fileDirective(p *Pass, f *ast.File, name string) bool {
	if hasDirective(f.Doc, name) {
		return true
	}
	for _, g := range f.Comments {
		if g.End() < f.Package && hasDirective(g, name) {
			return true
		}
	}
	return false
}

// enclosingFuncHasDirective reports whether the innermost FuncDecl
// containing pos carries the directive in its doc comment.
func enclosingFuncHasDirective(p *Pass, pos token.Pos, name string) bool {
	f := p.FileOf(pos)
	if f == nil {
		return false
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || pos < fd.Pos() || pos >= fd.End() {
			continue
		}
		return hasDirective(fd.Doc, name)
	}
	return false
}

// ------------------------------------------------------------- type helpers

// pkgNameOf resolves an identifier to the imported package it names,
// or nil.
func pkgNameOf(info *types.Info, x ast.Expr) *types.PkgName {
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

// calleeFromPkg reports whether call is pkgPath.funcName(...) and, if
// names is non-empty, whether funcName is one of names.
func calleeFromPkg(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	pn := pkgNameOf(info, sel.X)
	if pn == nil || pn.Imported().Path() != pkgPath {
		return "", false
	}
	if len(names) == 0 {
		return sel.Sel.Name, true
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return n, true
		}
	}
	return "", false
}

// ---------------------------------------------------------------- calls

// calleeFunc resolves call to the function or method it names, in any
// package (an interface method resolves to the interface's), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcDecls indexes the declared functions with a body in pass's
// non-test files.
func funcDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	return decls
}

// funcBody returns the body of a *ast.FuncDecl or *ast.FuncLit, or nil.
func funcBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return n.Body
	case *ast.FuncLit:
		return n.Body
	}
	return nil
}

// callees resolves the same-package functions call may run, as
// *ast.FuncDecl or *ast.FuncLit: a literal called in place, a static
// call among decls, or a call through an interface, which runs the
// method of every package-scope type implementing it. Calls through
// function-typed variables, parameters and fields, and calls into
// other packages, resolve to nothing: the soundness boundary.
func callees(pass *Pass, decls map[*types.Func]*ast.FuncDecl, call *ast.CallExpr) []ast.Node {
	var out []ast.Node
	add := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok && decls[fn] != nil {
			out = append(out, decls[fn])
		}
	}
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		out = append(out, fun)
	case *ast.Ident:
		add(pass.Info.Uses[fun])
	case *ast.SelectorExpr:
		sel := pass.Info.Selections[fun]
		if sel == nil {
			add(pass.Info.Uses[fun.Sel]) // package-qualified
		} else if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
			for _, m := range implementorsOf(pass, iface, sel.Obj().Name()) {
				add(m)
			}
		} else {
			add(sel.Obj())
		}
	}
	return out
}

// implementorsOf finds the method named name on every package-scope
// named type (or its pointer) implementing iface.
func implementorsOf(pass *Pass, iface *types.Interface, name string) []types.Object {
	var out []types.Object
	scope := pass.Pkg.Scope()
	for _, tn := range scope.Names() {
		obj, ok := scope.Lookup(tn).(*types.TypeName)
		if !ok || obj.IsAlias() {
			continue
		}
		T := obj.Type()
		if _, ok := T.Underlying().(*types.Interface); ok {
			continue
		}
		for _, t := range []types.Type{T, types.NewPointer(T)} {
			if !types.Implements(t, iface) {
				continue
			}
			if m, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, name); m != nil {
				out = append(out, m)
			}
			break
		}
	}
	return out
}

// walkStack visits every node below root, passing the stack of
// ancestors (outermost first, not including n itself). Returning false
// from fn prunes the subtree.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := fn(n, stack)
		if ok {
			stack = append(stack, n)
		}
		return ok
	})
}
