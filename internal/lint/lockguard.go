package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// LockGuard checks mutex discipline with one walk over each function
// body that carries the lock state through its statements in order:
//
//  1. Guarded fields. A struct field is mutex-guarded when declared so
//     (//ring:guardedby mu on the field) or when inference says so: at
//     least two accesses hold the sibling mutex and at least 75% of
//     all accesses do. Every access to a guarded field must then hold
//     that mutex on every path reaching it.
//  2. Blocking under a lock. While any mutex may be held, no blocking
//     operation runs: channel send/receive (outside a select with a
//     default), ranging over a channel, time.Sleep, calls into the
//     durable-storage packages, the transport package, or net, and
//     same-package calls that transitively reach one of those.
//  3. Double lock. Calling Lock on a mutex already held on every path
//     self-deadlocks.
//
// Lock state is tracked per (root object, selector path) — r.mu and
// e.fs.mu are distinct keys — with a three-point lattice
// unheld/held/maybe. Each arm of an if, switch or select starts from
// the state before it and the arms join after it, with that state too
// when an if has no else or a switch no default. A loop body is walked
// again from the join of its entry and end states until that join
// stops changing. break, continue and fallthrough hand their state to
// the statement or clause they go to, return ends a path, and goto is
// not modelled (the tree has none). `defer mu.Unlock()` leaves the
// state held, which is the point: the lock is held to function exit.
// Every function, literals included, starts all-unheld; a callee
// relying on its caller's lock shows up as a mostly-unheld field in
// inference rather than a finding, the documented soundness trade.
//
// Test files are skipped entirely. //ring:lockok (line or enclosing
// function doc) exempts a finding; a function whose doc carries it is
// exempt wholesale — the audit trail for the deliberate
// hold-across-fsync sections in Runner.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "guarded fields are accessed under their mutex and nothing blocks while a mutex is held",
	Run:  runLockGuard,
}

// locks is the lock state at one point of a walk, nil at a point no
// path reaches: a mutex present is held on some path there, and true
// when held on every path (the lattice unheld/maybe/held).
type locks map[lockKey]bool

// join merges b into a and returns it: a mutex the two disagree on,
// unheld on one side included, is maybe.
func join(a, b locks) locks {
	switch {
	case a == nil:
		return maps.Clone(b)
	case b == nil:
		return a
	}
	for k, v := range b {
		if held, ok := a[k]; !ok || held != v {
			a[k] = false
		}
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			a[k] = false
		}
	}
	return a
}

// lockKey names one mutex (or the base of a field access): the root
// object plus the selector path from it (".mu", ".fs.mu", "" for a bare
// local). The zero key is an expression that has none.
type lockKey struct {
	base types.Object
	path string
}

func (k lockKey) String() string { return k.base.Name() + k.path }

func (k lockKey) dot(name string) lockKey { return lockKey{k.base, k.path + "." + name} }

type lockOpKind int

const (
	opLock    lockOpKind = iota // Lock
	opRLock                     // RLock (held, but not a self-deadlock on repeat)
	opTryLock                   // TryLock/TryRLock: maybe-held after
	opUnlock                    // Unlock/RUnlock
	opAccess                    // read or write of a mutex-sibling field
	opBlock                     // a blocking primitive
	opCall                      // same-package call (blocking via summary)
)

// lockOp is one event of a function body, with what the walk knew of
// the lock state when it reached it.
type lockOp struct {
	fn      ast.Node // the *ast.FuncDecl or *ast.FuncLit it is in
	kind    lockOpKind
	key     lockKey    // the mutex locked or unlocked, or the one guarding an access
	field   *types.Var // opAccess
	callees []ast.Node // opCall
	pos     token.Pos
	label   string
	held    bool    // key is held on every path here
	holder  lockKey // a mutex held on some path here; zero if none
}

type lockGuard struct {
	pass  *Pass
	decls map[*types.Func]*ast.FuncDecl
	// mutexSib maps every field of a mutex-carrying struct to the name
	// of the sibling mutex field guarding it (the declared //ring:guardedby
	// target, else the struct's first mutex field).
	mutexSib map[*types.Var]string
	declared map[*types.Var]bool // //ring:guardedby present

	ops []lockOp // of every function body, in walk order

	// The body being walked: the fields of the struct types it builds
	// (initialization before sharing, exempt), the statements around
	// the walk that break and continue leave, innermost last, the state
	// a fallthrough hands the next clause, and the join of the states
	// at its returns.
	fn      ast.Node
	ctor    map[*types.Var]bool
	targets []*target
	fall    locks
	exit    locks
}

// target is a for, range, switch or select statement, and the states
// the breaks and continues leaving it hand it.
type target struct {
	label     string
	loop      bool
	brk, cont locks
}

func runLockGuard(pass *Pass) error {
	g := &lockGuard{pass: pass, decls: funcDecls(pass), mutexSib: map[*types.Var]string{}, declared: map[*types.Var]bool{}}
	g.scanStructs()
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if body := funcBody(n); body != nil {
				g.fn, g.ctor, g.exit = n, g.constructedFields(body), nil
				g.stmt(body, locks{})
			}
			return true
		})
	}

	mayBlock := map[ast.Node]bool{}
	blocks := func(callees []ast.Node) bool {
		for _, c := range callees {
			if mayBlock[c] {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, op := range g.ops {
			if !mayBlock[op.fn] && (op.kind == opBlock || op.kind == opCall && blocks(op.callees)) {
				mayBlock[op.fn], changed = true, true
			}
		}
	}

	// Inference: count accesses per field across the package, and those
	// with the sibling mutex must-held.
	held, total := map[*types.Var]int{}, map[*types.Var]int{}
	for _, op := range g.ops {
		if op.kind == opAccess {
			total[op.field]++
			if op.held {
				held[op.field]++
			}
		}
	}

	report := func(pos token.Pos, format string, args ...interface{}) {
		if !pass.lineDirective(pos, "lockok") && !enclosingFuncHasDirective(pass, pos, "lockok") {
			pass.Reportf(pos, format, args...)
		}
	}
	for _, op := range g.ops {
		locked := op.holder.base != nil
		switch f := op.field; {
		case op.kind == opLock && op.held:
			report(op.pos, "%s.Lock while %s is already held (self-deadlock)", op.key, op.key)
		case op.kind == opAccess && !op.held && (g.declared[f] || held[f] >= 2 && held[f]*4 >= total[f]*3):
			report(op.pos, "field %s is guarded by %s but accessed without holding it", f.Name(), g.mutexSib[f])
		case op.kind == opBlock && locked:
			report(op.pos, "%s while %s is held", op.label, op.holder)
		case op.kind == opCall && locked && blocks(op.callees):
			report(op.pos, "call to %s may block while %s is held", op.label, op.holder)
		}
	}
	return nil
}

// ---------------------------------------------------------------- walk

// stmt walks s from the state in, which it may change, and returns the
// state after s: nil when no path falls out of it.
func (g *lockGuard) stmt(s ast.Stmt, in locks) locks {
	label := ""
	if l, ok := s.(*ast.LabeledStmt); ok {
		label, s = l.Label.Name, l.Stmt
	}
	if in == nil {
		return nil
	}
	switch s := s.(type) {
	case nil, *ast.DeferStmt:
		// A deferred call runs at return; in particular a deferred
		// Unlock does NOT release the lock here — held-to-exit is
		// exactly the model we want.
		return in
	case *ast.BlockStmt:
		return g.block(s.List, in)
	case *ast.IfStmt:
		in = g.stmt(s.Init, in)
		g.scan(s.Cond, in, false)
		out := g.stmt(s.Body, maps.Clone(in))
		if s.Else != nil {
			in = g.stmt(s.Else, in)
		}
		return join(out, in)
	case *ast.ForStmt:
		return g.loop(label, g.stmt(s.Init, in), s.Cond, s.Post, s.Body)
	case *ast.RangeStmt:
		return g.loop(label, in, s.X, nil, s.Body)
	case *ast.SwitchStmt:
		in = g.stmt(s.Init, in)
		g.scan(s.Tag, in, false)
		return g.clauses(label, in, s.Body, true)
	case *ast.TypeSwitchStmt:
		return g.clauses(label, g.stmt(s.Assign, g.stmt(s.Init, in)), s.Body, true)
	case *ast.SelectStmt:
		return g.clauses(label, in, s.Body, false)
	case *ast.ReturnStmt:
		g.scan(s, in, false)
		g.exit = join(g.exit, in)
		return nil
	case *ast.BranchStmt:
		switch s.Tok {
		case token.GOTO:
			return in // not modelled
		case token.FALLTHROUGH:
			g.fall = in
			return nil
		}
		for i := len(g.targets) - 1; i >= 0; i-- {
			t := g.targets[i]
			if s.Label != nil && s.Label.Name != t.label || s.Label == nil && s.Tok == token.CONTINUE && !t.loop {
				continue
			}
			to := &t.cont
			if s.Tok == token.BREAK {
				to = &t.brk
			}
			*to = join(*to, in)
			break
		}
		return nil
	}
	g.scan(s, in, false)
	return in
}

func (g *lockGuard) block(list []ast.Stmt, st locks) locks {
	for _, s := range list {
		st = g.stmt(s, st)
	}
	return st
}

// enter pushes t onto the targets; the func it returns pops it.
func (g *lockGuard) enter(t *target) func() {
	g.targets = append(g.targets, t)
	return func() { g.targets = g.targets[:len(g.targets)-1] }
}

// loop walks a for or range statement. head, the condition or the
// ranged expression, runs before every iteration, and a range or a
// for with a condition can end there. The body is walked again from
// the join of the entry state and the state it ends or continues with
// until that join stops changing; only the last walk's ops are kept.
func (g *lockGuard) loop(label string, in locks, head ast.Expr, post ast.Stmt, body *ast.BlockStmt) locks {
	t := &target{label: label, loop: true}
	defer g.enter(t)()
	mark := len(g.ops)
	for h := maps.Clone(in); ; {
		g.ops, t.brk, t.cont = g.ops[:mark], nil, nil
		st := maps.Clone(h)
		g.scan(head, st, false)
		end := g.stmt(post, join(g.stmt(body, maps.Clone(st)), t.cont))
		if next := join(maps.Clone(in), end); !maps.Equal(next, h) {
			h = next
		} else if head == nil {
			return t.brk
		} else {
			return join(t.brk, st)
		}
	}
}

// clauses walks the clauses of a switch or select, each from in (and
// from what a fallthrough hands it). in also flows past the statement
// when fallsPast — a switch, until a default clause turns up; a select
// waits for one of its clauses, and its comms cannot block when it has
// a default.
func (g *lockGuard) clauses(label string, in locks, body *ast.BlockStmt, fallsPast bool) locks {
	t := &target{label: label}
	defer g.enter(t)()
	nonBlocking := false
	for _, c := range body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			nonBlocking = true
		}
	}
	var out locks
	for _, c := range body.List {
		st := maps.Clone(in)
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				g.scan(e, st, false)
			}
			list, fallsPast = c.Body, fallsPast && c.List != nil
		case *ast.CommClause:
			g.scan(c.Comm, st, nonBlocking)
			list = c.Body
		}
		st, g.fall = join(st, g.fall), nil
		out = join(out, g.block(list, st))
	}
	if fallsPast {
		out = join(out, in)
	}
	return join(out, t.brk)
}

// scan applies the ops of one simple statement or expression to st in
// source order and records them with the state each found. Function
// literals are walked on their own and the call a go statement spawns
// runs elsewhere, so neither counts here (the spawn's arguments do).
// nonBlocking drops channel operations: the comm of a select with a
// default.
func (g *lockGuard) scan(n ast.Node, st locks, nonBlocking bool) {
	if n == nil {
		return
	}
	info := g.pass.Info
	start := len(g.ops)
	block := func(pos token.Pos, label string) {
		g.ops = append(g.ops, lockOp{kind: opBlock, pos: pos, label: label})
	}
	// A range head whose expression is a channel blocks per iteration.
	if e, ok := n.(ast.Expr); ok && isChan(info.TypeOf(e)) {
		block(e.Pos(), "ranging over a channel")
	}
	var spawned *ast.CallExpr
	if gs, ok := n.(*ast.GoStmt); ok {
		spawned = gs.Call
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if !nonBlocking {
				block(x.Pos(), "channel send")
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !nonBlocking {
				block(x.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if op, ok := g.classifyCall(x); ok && x != spawned {
				g.ops = append(g.ops, op)
				// The m.mu of m.mu.Lock() is the discipline, not a
				// guarded access.
				return op.kind > opUnlock
			}
		case *ast.SelectorExpr:
			if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				f := s.Obj().(*types.Var)
				if sib, tracked := g.mutexSib[f]; tracked && !g.ctor[f] {
					op := lockOp{kind: opAccess, field: f, pos: x.Sel.Pos()}
					if base := exprKey(info, x.X); base.base != nil {
						op.key = base.dot(sib)
					}
					g.ops = append(g.ops, op)
				}
			}
		}
		return true
	})
	ops := g.ops[start:]
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].pos < ops[j].pos })
	for i := range ops {
		op := &ops[i]
		op.fn = g.fn
		op.held = st[op.key] // the zero key is never stored
		for k, held := range st {
			if op.holder = k; held {
				break
			}
		}
		switch {
		case op.key.base == nil:
		case op.kind == opLock, op.kind == opRLock:
			st[op.key] = true
		case op.kind == opTryLock:
			st[op.key] = false
		case op.kind == opUnlock:
			delete(st, op.key)
		}
	}
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// ---------------------------------------------------------------- structs

// scanStructs finds every struct carrying a sync.Mutex/RWMutex field
// and records, for each other field, the sibling mutex guarding it.
func (g *lockGuard) scanStructs() {
	info := g.pass.Info
	for _, f := range g.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			s, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			mutex := ""
			for _, fd := range s.Fields.List {
				if mutex == "" && len(fd.Names) > 0 && isMutexType(info.TypeOf(fd.Type)) {
					mutex = fd.Names[len(fd.Names)-1].Name
				}
			}
			for _, fd := range s.Fields.List {
				args, _ := directiveArgs(fd.Doc, "guardedby")
				if len(args) == 0 {
					args, _ = directiveArgs(fd.Comment, "guardedby")
				}
				// A channel is its own synchronization; sending on one
				// is not a guarded-field access.
				t := info.TypeOf(fd.Type)
				if mutex == "" || isMutexType(t) || isChan(t) && len(args) == 0 {
					continue
				}
				sib := mutex
				if len(args) > 0 {
					sib = args[0]
				}
				for _, name := range fd.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						g.mutexSib[v], g.declared[v] = sib, len(args) > 0
					}
				}
			}
			return true
		})
	}
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// constructedFields lists the fields of the named struct types body
// builds with a composite literal.
func (g *lockGuard) constructedFields(body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.CompositeLit); ok {
			t := g.pass.Info.Types[lit].Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				if s, ok := named.Underlying().(*types.Struct); ok {
					for i := 0; i < s.NumFields(); i++ {
						out[s.Field(i)] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------- ops

// exprKey resolves a selector chain rooted at a plain identifier to a
// (base object, path) key. Anything else — an index expression, a call
// result — is unkeyable: the zero key.
func exprKey(info *types.Info, e ast.Expr) lockKey {
	switch e := e.(type) {
	case *ast.Ident:
		if obj, ok := info.ObjectOf(e).(*types.Var); ok {
			return lockKey{base: obj}
		}
	case *ast.ParenExpr:
		return exprKey(info, e.X)
	case *ast.SelectorExpr:
		if k := exprKey(info, e.X); k.base != nil {
			return k.dot(e.Sel.Name)
		}
	}
	return lockKey{}
}

var lockMethods = map[string]lockOpKind{
	"Lock":     opLock,
	"RLock":    opRLock,
	"TryLock":  opTryLock,
	"TryRLock": opTryLock,
	"Unlock":   opUnlock,
	"RUnlock":  opUnlock,
}

// classifyCall turns a call into a lock op, a blocking primitive, or a
// same-package call event.
func (g *lockGuard) classifyCall(call *ast.CallExpr) (lockOp, bool) {
	info := g.pass.Info
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if kind, isLockM := lockMethods[sel.Sel.Name]; isLockM && isMutexType(info.Types[sel.X].Type) {
			return lockOp{kind: kind, key: exprKey(info, sel.X), pos: call.Pos()}, true
		}
	}
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg() != g.pass.Pkg {
		switch p := fn.Pkg().Path(); {
		case p == "time" && fn.Name() == "Sleep":
			return lockOp{kind: opBlock, pos: call.Pos(), label: "time.Sleep"}, true
		case durablePkgs[p] || p == "ring/internal/transport" || p == "net":
			return lockOp{kind: opBlock, pos: call.Pos(), label: "call to " + fn.Pkg().Name() + "." + fn.Name()}, true
		}
	}
	callees := callees(g.pass, g.decls, call)
	if len(callees) == 0 {
		return lockOp{}, false
	}
	label := "a function literal"
	if fd, ok := callees[0].(*ast.FuncDecl); ok {
		label = fd.Name.Name
	}
	return lockOp{kind: opCall, callees: callees, pos: call.Pos(), label: label}, true
}
