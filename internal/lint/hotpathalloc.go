package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// HotPathAlloc enforces the zero-allocation message path. Functions
// annotated //ring:hotpath, and every same-package function they
// statically reach, may not:
//
//   - call into package fmt (formatting allocates; move error
//     construction behind a //ring:hotpath-stop cold helper)
//   - concatenate strings with + or +=
//   - build closures that capture variables and escape (assigned,
//     stored, returned, or launched — a literal passed directly as a
//     call argument or invoked in place is assumed non-escaping)
//   - box non-pointer values into interfaces (pointers, channels, maps
//     and funcs ride in an interface without allocating; everything
//     else escapes to the heap)
//   - append to a local slice declared without capacity (var s []T,
//     s := []T{}, s := make([]T, 0)) — preallocate or reuse a buffer
//
// Traversal is per package: a cross-package call is the callee
// package's responsibility, annotated at its own entry point (proto's
// AppendEncode/Decode, transport's Send, core's Deliver/Pack). Calls
// through an interface propagate to every same-package concrete method
// implementing it, which is how annotating AppendEncode covers all 35+
// message encode methods. //ring:hotpath-stop bounds the walk at
// deliberate exits: cold error constructors and subsystems governed by
// their own rules (the Node state machine).
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "//ring:hotpath functions and their local callees must not allocate via fmt, string concat, escaping closures, interface boxing, or un-preallocated append",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	decls := funcDecls(pass)
	stops := map[*ast.FuncDecl]bool{}
	type rootedFn struct {
		fd   *ast.FuncDecl
		root string
	}
	var queue []rootedFn
	for _, fd := range decls {
		if hasDirective(fd.Doc, "hotpath-stop") {
			stops[fd] = true
		} else if hasDirective(fd.Doc, "hotpath") {
			queue = append(queue, rootedFn{fd, fd.Name.Name})
		}
	}
	// Source order: a function two roots reach is reported via the same
	// one every run.
	sort.Slice(queue, func(i, j int) bool { return queue[i].fd.Pos() < queue[j].fd.Pos() })

	seen := map[*ast.FuncDecl]bool{}
	for len(queue) > 0 {
		item := queue[0]
		queue = queue[1:]
		if seen[item.fd] || stops[item.fd] {
			continue
		}
		seen[item.fd] = true
		checkHotFunc(pass, item.fd, item.root)
		ast.Inspect(item.fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				for _, c := range callees(pass, decls, call) {
					if fd, ok := c.(*ast.FuncDecl); ok && !seen[fd] && !stops[fd] {
						queue = append(queue, rootedFn{fd, item.root})
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkHotFunc flags the allocation patterns inside one hot function.
func checkHotFunc(pass *Pass, fd *ast.FuncDecl, root string) {
	info := pass.Info
	badSlices := unpreallocatedLocals(pass, fd)

	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := calleeFromPkg(info, n, "fmt"); ok {
				pass.Reportf(n.Pos(), "hot path (via %s): call to fmt.%s allocates", root, name)
			}
			checkCallBoxing(pass, n, root)
			if isBuiltin(info, n.Fun, "append") && len(n.Args) > 0 {
				if id, ok := n.Args[0].(*ast.Ident); ok && badSlices[info.Uses[id]] {
					pass.Reportf(n.Pos(), "hot path (via %s): append to un-preallocated local slice %s (declare with capacity or reuse a buffer)", root, id.Name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.Types[n.X].Type) {
				pass.Reportf(n.Pos(), "hot path (via %s): string concatenation allocates", root)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(info.Types[n.Lhs[0]].Type) {
				pass.Reportf(n.Pos(), "hot path (via %s): string concatenation allocates", root)
			}
			checkAssignBoxing(pass, n, root)
		case *ast.ReturnStmt:
			checkReturnBoxing(pass, fd, n, root)
		case *ast.CompositeLit:
			checkCompositeBoxing(pass, n, root)
		case *ast.FuncLit:
			if capturesOutside(pass, fd, n) && escapes(n, stack) {
				pass.Reportf(n.Pos(), "hot path (via %s): escaping closure captures variables and allocates", root)
			}
		}
		return true
	})
}

// unpreallocatedLocals collects local slice variables declared with no
// capacity, clearing any that are later reassigned a real buffer. A
// variable stays flagged at most once: reassignment from append(...)
// marks it good so only the first growth is reported.
func unpreallocatedLocals(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	bad := map[types.Object]bool{}
	mark := func(id *ast.Ident, isBad bool) {
		if obj := pass.Info.Defs[id]; obj != nil {
			bad[obj] = isBad
		} else if obj := pass.Info.Uses[id]; obj != nil {
			if _, tracked := bad[obj]; tracked || isBad {
				bad[obj] = isBad
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if len(n.Values) != 0 {
				return true
			}
			if at, ok := n.Type.(*ast.ArrayType); ok && at.Len == nil {
				for _, id := range n.Names {
					mark(id, true)
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				// Self-append (s = append(s, ...)) does not change
				// status: growing a bad slice keeps it bad.
				if isSelfAppend(pass, id, n.Rhs[i]) {
					continue
				}
				mark(id, isEmptySliceExpr(pass, n.Rhs[i]))
			}
		}
		return true
	})
	return bad
}

// isSelfAppend reports whether e is append(id, ...) growing the same
// variable it is assigned back to.
func isSelfAppend(pass *Pass, id *ast.Ident, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || !isBuiltin(pass.Info, call.Fun, "append") || len(call.Args) == 0 {
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return false
	}
	lobj := pass.Info.Uses[id]
	if lobj == nil {
		lobj = pass.Info.Defs[id]
	}
	return lobj != nil && pass.Info.Uses[arg] == lobj
}

// isEmptySliceExpr reports whether e is a capacity-free fresh slice:
// []T{} with no elements, or make([]T, 0) with no cap.
func isEmptySliceExpr(pass *Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		at, ok := e.Type.(*ast.ArrayType)
		return ok && at.Len == nil && len(e.Elts) == 0
	case *ast.CallExpr:
		if !isBuiltin(pass.Info, e.Fun, "make") || len(e.Args) != 2 {
			return false
		}
		if at, ok := e.Args[0].(*ast.ArrayType); !ok || at.Len != nil {
			return false
		}
		tv := pass.Info.Types[e.Args[1]]
		return tv.Value != nil && tv.Value.String() == "0"
	}
	return false
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	if !ok {
		if t == nil {
			return false
		}
		b, ok = t.Underlying().(*types.Basic)
	}
	return ok && b.Info()&types.IsString != 0
}

// ----------------------------------------------------------------- boxing

// needsBox reports whether storing a value of type t into an interface
// allocates: pointers, channels, maps, funcs, interfaces and nil ride
// in the interface word for free; everything else is heap-boxed.
func needsBox(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		if b := t.Underlying().(*types.Basic); b.Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

func reportBox(pass *Pass, pos token.Pos, root string, t types.Type) {
	pass.Reportf(pos, "hot path (via %s): %s boxed into interface allocates", root, types.TypeString(t, types.RelativeTo(pass.Pkg)))
}

// checkCallBoxing flags concrete non-pointer arguments passed to
// interface-typed parameters (including conversions T(x) where T is an
// interface, and variadic ...interface{} tails).
func checkCallBoxing(pass *Pass, call *ast.CallExpr, root string) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		if isInterface(tv.Type) && len(call.Args) == 1 {
			if at := pass.Info.Types[call.Args[0]].Type; needsBox(at) {
				reportBox(pass, call.Args[0].Pos(), root, at)
			}
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if !isInterface(pt) {
			continue
		}
		if at := pass.Info.Types[arg].Type; needsBox(at) {
			reportBox(pass, arg.Pos(), root, at)
		}
	}
}

func checkAssignBoxing(pass *Pass, n *ast.AssignStmt, root string) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i := range n.Lhs {
		lt := pass.Info.Types[n.Lhs[i]].Type
		if n.Tok == token.DEFINE {
			if id, ok := n.Lhs[i].(*ast.Ident); ok {
				if obj := pass.Info.Defs[id]; obj != nil {
					lt = obj.Type()
				}
			}
		}
		if !isInterface(lt) {
			continue
		}
		if rt := pass.Info.Types[n.Rhs[i]].Type; needsBox(rt) {
			reportBox(pass, n.Rhs[i].Pos(), root, rt)
		}
	}
}

func checkReturnBoxing(pass *Pass, fd *ast.FuncDecl, n *ast.ReturnStmt, root string) {
	obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	res := obj.Type().(*types.Signature).Results()
	if res.Len() != len(n.Results) {
		return
	}
	for i, r := range n.Results {
		if !isInterface(res.At(i).Type()) {
			continue
		}
		if rt := pass.Info.Types[r].Type; needsBox(rt) {
			reportBox(pass, r.Pos(), root, rt)
		}
	}
}

func checkCompositeBoxing(pass *Pass, lit *ast.CompositeLit, root string) {
	lt := pass.Info.Types[lit].Type
	if lt == nil {
		return
	}
	elemType := func(i int, kv *ast.KeyValueExpr) types.Type {
		switch u := lt.Underlying().(type) {
		case *types.Slice:
			return u.Elem()
		case *types.Array:
			return u.Elem()
		case *types.Map:
			return u.Elem()
		case *types.Struct:
			if kv != nil {
				if id, ok := kv.Key.(*ast.Ident); ok {
					if f, _ := pass.Info.Uses[id].(*types.Var); f != nil {
						return f.Type()
					}
				}
				return nil
			}
			if i < u.NumFields() {
				return u.Field(i).Type()
			}
		}
		return nil
	}
	for i, el := range lit.Elts {
		kv, _ := el.(*ast.KeyValueExpr)
		val := el
		if kv != nil {
			val = kv.Value
		}
		ft := elemType(i, kv)
		if !isInterface(ft) {
			continue
		}
		if vt := pass.Info.Types[val].Type; needsBox(vt) {
			reportBox(pass, val.Pos(), root, vt)
		}
	}
}

// ---------------------------------------------------------------- closures

// capturesOutside reports whether lit references variables declared in
// fd but outside lit itself.
func capturesOutside(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := v.Pos()
		if pos >= fd.Pos() && pos < fd.End() && (pos < lit.Pos() || pos >= lit.End()) {
			captures = true
			return false
		}
		return true
	})
	return captures
}

// escapes approximates whether a closure literal outlives the call
// frame: a literal invoked in place or passed directly as a call
// argument is assumed non-escaping (the overwhelmingly common
// callback shape, stack-allocated by the compiler); anything assigned,
// stored, returned, or launched via go/defer escapes.
func escapes(lit *ast.FuncLit, stack []ast.Node) bool {
	if len(stack) == 0 {
		return true
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.CallExpr:
		if parent.Fun == lit {
			// Immediately invoked — unless the invocation launches a
			// goroutine, which moves the frame to the heap.
			if len(stack) >= 2 {
				if _, ok := stack[len(stack)-2].(*ast.GoStmt); ok {
					return true
				}
			}
			return false
		}
		for _, a := range parent.Args {
			if a == lit {
				// Direct callback argument — unless launched.
				if len(stack) >= 2 {
					switch stack[len(stack)-2].(type) {
					case *ast.GoStmt, *ast.DeferStmt:
						return true
					}
				}
				return false
			}
		}
	}
	return true
}
