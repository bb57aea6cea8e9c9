package flow

import (
	"go/ast"
	"go/types"
)

// Unit is one analyzable function: a declared function/method or a
// function literal. Units are the vertices of the same-package call
// graph and the domain of interprocedural summaries.
type Unit struct {
	// Name labels diagnostics: the declared name, or "func literal".
	Name string
	// Decl is the *ast.FuncDecl or *ast.FuncLit.
	Decl ast.Node
	Body *ast.BlockStmt
	// Graph is the unit's CFG, built eagerly.
	Graph *Graph
}

// CallGraph resolves same-package callees conservatively: static
// calls, calls through local variables bound to exactly one function
// literal, and calls through a same-package interface (expanded to
// every same-package implementor, the hotpathalloc convention).
type CallGraph struct {
	Pkg   *types.Package
	Info  *types.Info
	Units []*Unit

	byDecl map[ast.Node]*Unit
	byFunc map[*types.Func]*Unit
	// byVar maps a local variable to the single function literal it is
	// bound to, when that binding is unambiguous (one assignment,
	// right-hand side a literal).
	byVar map[types.Object]*Unit
}

// NewCallGraph enumerates the units of the files (skipping any file
// for which skip returns true, normally the _test.go predicate),
// builds their CFGs, and indexes callee resolution.
func NewCallGraph(pkg *types.Package, info *types.Info, files []*ast.File, skip func(*ast.File) bool) *CallGraph {
	cg := &CallGraph{
		Pkg:    pkg,
		Info:   info,
		byDecl: map[ast.Node]*Unit{},
		byFunc: map[*types.Func]*Unit{},
		byVar:  map[types.Object]*Unit{},
	}
	// Variables assigned function literals; a variable assigned more
	// than once is ambiguous and dropped.
	litBindings := map[types.Object]*ast.FuncLit{}
	ambiguous := map[types.Object]bool{}
	bind := func(id *ast.Ident, rhs ast.Expr) {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if lit, ok := rhs.(*ast.FuncLit); ok && !ambiguous[obj] && litBindings[obj] == nil {
			litBindings[obj] = lit
			return
		}
		// Reassignment (or a non-literal binding) poisons the entry.
		delete(litBindings, obj)
		ambiguous[obj] = true
	}

	for _, f := range files {
		if skip != nil && skip(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				u := &Unit{Name: n.Name.Name, Decl: n, Body: n.Body, Graph: Build(n.Body)}
				cg.Units = append(cg.Units, u)
				cg.byDecl[n] = u
				if fn, ok := info.Defs[n.Name].(*types.Func); ok {
					cg.byFunc[fn] = u
				}
			case *ast.FuncLit:
				u := &Unit{Name: "func literal", Decl: n, Body: n.Body, Graph: Build(n.Body)}
				cg.Units = append(cg.Units, u)
				cg.byDecl[n] = u
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
							bind(id, n.Rhs[i])
						}
					}
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					if i < len(n.Values) {
						bind(id, n.Values[i])
					}
				}
			}
			return true
		})
	}
	for obj, lit := range litBindings {
		if u := cg.byDecl[lit]; u != nil {
			cg.byVar[obj] = u
		}
	}
	return cg
}

// Callees resolves the same-package units call may invoke. Calls
// through function-typed parameters or fields, and calls into other
// packages, resolve to nothing — the documented soundness boundary.
func (cg *CallGraph) Callees(call *ast.CallExpr) []*Unit {
	var out []*Unit
	seen := map[*Unit]bool{}
	add := func(u *Unit) {
		if u != nil && !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	addObj := func(obj types.Object) {
		switch obj := obj.(type) {
		case *types.Func:
			if obj.Pkg() == cg.Pkg {
				add(cg.byFunc[obj])
			}
		case *types.Var:
			add(cg.byVar[obj])
		}
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		addObj(cg.Info.Uses[fun])
	case *ast.FuncLit:
		add(cg.byDecl[fun])
	case *ast.SelectorExpr:
		if sel := cg.Info.Selections[fun]; sel != nil {
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				for _, m := range cg.implementorsOf(iface, sel.Obj().Name()) {
					addObj(m)
				}
			} else {
				addObj(sel.Obj())
			}
		} else {
			addObj(cg.Info.Uses[fun.Sel]) // pkg-qualified; filtered by Pkg above
		}
	}
	return out
}

// implementorsOf finds the method named name on every package-scope
// named type (or its pointer) implementing iface — interface dispatch
// expands to every same-package implementor.
func (cg *CallGraph) implementorsOf(iface *types.Interface, name string) []types.Object {
	var out []types.Object
	scope := cg.Pkg.Scope()
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
			if m, _, _ := types.LookupFieldOrMethod(t, true, cg.Pkg, name); m != nil {
				out = append(out, m)
			}
			break
		}
	}
	return out
}

// CalleeFunc resolves call to the single *types.Func it statically
// invokes (through an identifier, selector, or interface method
// object), or nil. Unlike Callees this crosses package boundaries —
// it is how analyzers classify calls into other packages.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ScanNode visits the expressions belonging to one CFG node in source
// order, without descending into function literal bodies (those are
// separate units). The node's Ast is visited directly; anchor nodes
// yield nothing.
func ScanNode(n *Node, visit func(ast.Node) bool) {
	if n.Ast == nil {
		return
	}
	ast.Inspect(n.Ast, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if x == nil {
			return false
		}
		return visit(x)
	})
}
